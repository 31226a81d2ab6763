package isa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"ctxback/internal/artifact"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := testProgram(t)
	data := EncodeProgram(p)
	q, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.NumVRegs != p.NumVRegs || q.NumSRegs != p.NumSRegs || q.LDSBytes != p.LDSBytes {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("instr count %d vs %d", len(q.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], q.Instrs[i]
		a.Comment, b.Comment = "", "" // comments are not serialized
		if a != b {
			t.Errorf("instr %d: %s vs %s", i, a.String(), b.String())
		}
	}
}

func TestEncodeDecodeRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for it := 0; it < 50; it++ {
		b := NewBuilder("rnd", 8, 16, 0)
		n := 3 + rng.Intn(20)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				b.I(VAdd, R(V(rng.Intn(8))), R(V(rng.Intn(8))), Imm(rng.Intn(1000)-500))
			case 1:
				b.NoOvf(VShl, R(V(rng.Intn(8))), R(V(rng.Intn(8))), Imm(rng.Intn(8)))
			case 2:
				b.I(VGLoad, R(V(rng.Intn(8))), R(V(rng.Intn(8))), Imm(rng.Intn(64)*4)).Space(rng.Intn(3) + 1)
			case 3:
				b.I(SMov, R(S(rng.Intn(16))), ImmF(rng.Float32()))
			case 4:
				b.I(VMadF, R(V(rng.Intn(8))), R(V(rng.Intn(8))), R(V(rng.Intn(8))), R(V(rng.Intn(8))))
			}
		}
		b.I(SEndpgm)
		p := mustProg(b)
		q, err := DecodeProgram(EncodeProgram(p))
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		for i := range p.Instrs {
			if p.Instrs[i] != q.Instrs[i] {
				t.Fatalf("iter %d instr %d mismatch", it, i)
			}
		}
		// Re-encoding the decode must be byte-identical (canonical form).
		if !bytes.Equal(EncodeProgram(p), EncodeProgram(q)) {
			t.Fatalf("iter %d: re-encode differs", it)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := testProgram(t)
	good := EncodeProgram(p)

	bad := append([]byte(nil), good...)
	copy(bad, "XXXX")
	bad2 := append([]byte(nil), good...)
	bad2[4] = 0xFF // version
	// Corrupt an opcode beyond the table: decoded program must be
	// rejected rather than executed.
	bad3 := append([]byte(nil), good...)
	hdr := 4 + 2 + 2 + len(p.Name) + 16
	bad3[hdr] = 0xFF
	bad3[hdr+1] = 0xFF
	// A well-formed encoding of an invalid program: a branch target
	// past the end.
	bad4 := append([]byte(nil), good...)
	bad4[len(bad4)-InstrWordBytes-InstrWordBytes+12] = 0x7F
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", good[:8], artifact.ErrTruncated},
		{"bad magic", bad, artifact.ErrCorrupt},
		{"bad version", bad2, artifact.ErrStale},
		{"bad opcode", bad3, artifact.ErrCorrupt},
		{"invalid program", bad4, artifact.ErrCorrupt},
	} {
		if _, err := DecodeProgram(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestRoutineEncoding(t *testing.T) {
	instrs := []Instruction{
		{Op: CtxSaveV, Srcs: [MaxSrcs]Operand{R(V(3))}, Imm0: 2},
		{Op: CtxSavePC, Target: 17},
		{Op: CtxExit},
	}
	if got, want := RoutineBytes(instrs), 4+3*InstrWordBytes; got != want {
		t.Errorf("RoutineBytes = %d, want %d", got, want)
	}
	data := EncodeRoutine(instrs)
	if len(data) != RoutineBytes(instrs) {
		t.Errorf("encoded %d bytes, accounting says %d", len(data), RoutineBytes(instrs))
	}
	if s := FormatRoutine(instrs); !bytes.Contains([]byte(s), []byte("ctx_save_v")) {
		t.Errorf("FormatRoutine output: %q", s)
	}
}

// TestDecodeHostileCountAllocatesLittle: a 4-byte routine or a 24-byte
// program header claiming 2^20 instructions fails as truncated before
// allocating room for them (2^20 instructions would take 80 MiB).
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	routine := binary.LittleEndian.AppendUint32(nil, 1<<20)
	program := EncodeProgram(&Program{})
	binary.LittleEndian.PutUint32(program[len(program)-4:], 1<<20)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"routine", func() error { _, err := DecodeRoutine(routine); return err }},
		{"program", func() error { _, err := DecodeProgram(program); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, artifact.ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: decode allocated %d bytes", tc.name, got)
		}
	}
}
