package core

import (
	"bytes"
	"strings"
	"testing"

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
