package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
)

// TestDecodeCompiledRejectsRegisterBeyondCapacity: a register no RegSet
// can hold is a decode error, never a panic.
func TestDecodeCompiledRejectsRegisterBeyondCapacity(t *testing.T) {
	c := compileSmall(t)
	enc := EncodeCompiled(c)
	if got, err := DecodeCompiled(c.Prog, c.Graph, c.Live, enc); err != nil || !bytes.Equal(EncodeCompiled(got), enc) {
		t.Fatalf("round trip: err = %v", err)
	}
	bad := *c
	bad.OSRB = map[isa.Reg]isa.Reg{isa.S(0): isa.V(isa.MaxVRegs)}
	_, err := DecodeCompiled(c.Prog, c.Graph, c.Live, EncodeCompiled(&bad))
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("err = %v, want a capacity error", err)
	}
}

// TestDecodeHostileCountAllocatesLittle: a 1 MiB payload whose one plan
// claims 2^20 preempt reverts fails before allocating room for them
// (2^20 reverts would take about 152 MiB).
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	c := compileSmall(t)
	w := artifact.NewWriter()
	w.U8(uint8(FeatAll))
	w.Int(DefaultMaxWindow)
	w.Int(1) // plans
	for range 5 {
		w.Int(0) // P, Q and the status, init and reload lengths
	}
	w.Int(1 << 20) // preempt reverts
	payload := append(w.Data(), make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCompiled(c.Prog, c.Graph, c.Live, payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, artifact.ErrTruncated) && !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("err = %v, want ErrTruncated or ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decode allocated %d bytes", got)
	}
}
