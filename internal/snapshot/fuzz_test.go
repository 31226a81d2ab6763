package snapshot

import (
	"bytes"
	"testing"

	"ctxback/internal/gen"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// FuzzSnapshotRoundTrip is the satellite-3 fuzz target: any buffer the
// decoder accepts must re-encode byte-identically (the canonical-form
// property every downstream checksum and diff depends on), survive
// CheckInvariants without panicking, and decode identically a second
// time. Seeds cover an empty state, a mid-run checkpoint, a parked
// episode with full context buffers, a 64 MiB device and a memory that
// ends in a short block.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte("CSNP"))
	{
		wl := mustWorkload(f, "VA")
		d, _, _ := parked(f, preempt.Baseline, wl)
		_, enc := Capture(d, 1)
		f.Add(enc)
		trunc := enc[:len(enc)/2]
		f.Add(trunc)
		flip := append([]byte(nil), enc...)
		flip[len(flip)/2] ^= 0x20
		f.Add(flip)
	}
	{
		wl := mustWorkload(f, "MS")
		d, _, _ := parked(f, preempt.CTXBack, wl)
		_, enc := Capture(d, 99)
		f.Add(enc)
	}
	// Generated-corpus seeds: captures of parked generated programs
	// reach section shapes the hand-written kernels don't (LDS shares
	// under divergence, atomics in flight, deep loop contexts). The
	// generator seeds are ones whose kernels historically exposed
	// technique bugs, so their parked states are the gnarliest known.
	for _, genSeed := range []uint64{2, 6, 19} {
		wl := gen.Generate(genSeed).Workload()
		d, _, _ := parked(f, preempt.CTXBack, wl)
		_, enc := Capture(d, 7)
		f.Add(enc)
	}

	// The memory section lists only the blocks holding a non-zero word:
	// a capture on serve's device shape (the test device with 64 MiB),
	// and one whose memory ends in a short block holding a word.
	for _, mem := range []int{64 << 20, 1<<20 + 4*100} {
		cfg := sim.TestConfig()
		cfg.GlobalMemBytes = mem
		d, _, _ := parkedOn(f, cfg, preempt.CTXBack, mustWorkload(f, "VA"))
		if mem%(4*memBlockWords) != 0 {
			d.Mem.Store(d.Mem.Words()-1, 0xc0ffee)
		}
		_, enc := Capture(d, 1)
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			// Rejected input: the speculative decoder may accept it (it
			// skips only the memory checksum) but must never panic.
			if s, validate, specErr := DecodeSpeculative(data); specErr == nil {
				_ = s.State.CheckInvariants()
				_ = validate()
			}
			return
		}
		again := Encode(snap)
		if !bytes.Equal(data, again) {
			t.Fatalf("decode∘encode not identity: %d bytes in, %d out", len(data), len(again))
		}
		// Accepted states must be safe to interrogate (never panic);
		// invariant failures are fine — ImportState refuses those.
		_ = snap.State.CheckInvariants()
		snap2, err := Decode(data)
		if err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(Encode(snap2), again) {
			t.Fatal("decode is not deterministic")
		}
	})
}
