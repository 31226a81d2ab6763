package isa_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ctxback/internal/core"
	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
)

// corpus is the twelve Table I kernels at test scale followed by the
// generator's programs for seeds 0..nGen-1.
func corpus(tb testing.TB, nGen int) []*isa.Program {
	tb.Helper()
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		tb.Fatal(err)
	}
	var progs []*isa.Program
	for _, wl := range wls {
		progs = append(progs, wl.Prog)
	}
	for seed := 0; seed < nGen; seed++ {
		progs = append(progs, gen.Generate(uint64(seed)).Prog)
	}
	return progs
}

// TestProgramBytesPinned pins the program wire format byte for byte:
// the SHA-256 over EncodeProgram of the twelve kernels and generator
// seeds 0-199, then over EncodeCompiled (whose routines are
// EncodeRoutine streams) of the kernels and every 25th seed.
func TestProgramBytesPinned(t *testing.T) {
	progs := corpus(t, 200)
	h := sha256.New()
	for _, p := range progs {
		h.Write(isa.EncodeProgram(p))
	}
	for i, p := range progs {
		if i >= 12 && (i-12)%25 != 0 {
			continue
		}
		c, err := core.Compile(p, core.FeatAll)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		h.Write(core.EncodeCompiled(c))
	}
	const want = "677d74bb730ce4db391ffc77db81cb313fd8b3bfa87df5a6be3ea31fc8116b29"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("program bytes sha256 %s, want %s", got, want)
	}
}

// FuzzDecodeProgram: any program the decoder accepts re-encodes to the
// exact input bytes, and its decoded table matches its instructions
// (checkTable). Seeds are the kernels, generator programs, and three
// lenient variants of a valid encoding — a trailing byte, non-zero
// operand padding and an unknown flag bit — that must be rejected.
func FuzzDecodeProgram(f *testing.F) {
	progs := corpus(f, 16)
	for _, p := range progs {
		f.Add(isa.EncodeProgram(p))
	}
	good := isa.EncodeProgram(progs[0])
	first := 4 + 2 + 2 + len(progs[0].Name) + 16 // first instruction
	trailing := append(bytes.Clone(good), 0)
	padded := bytes.Clone(good)
	padded[first+16+1] = 1 // first operand's padding
	flagged := bytes.Clone(good)
	flagged[first+2] |= 0x80 // flags byte
	f.Add(trailing)
	f.Add(padded)
	f.Add(flagged)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.DecodeProgram(data)
		if err != nil {
			return
		}
		if again := isa.EncodeProgram(p); !bytes.Equal(again, data) {
			t.Fatalf("accepted program re-encodes differently:\n in: % x\nout: % x", data, again)
		}
		checkTable(t, p)
	})
}
