package snapshot

import (
	"testing"

	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// benchConfig is the device of the repository benchmark's checkpoint
// workload: the default model with 16 MiB of memory.
func benchConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.GlobalMemBytes = 16 << 20
	return cfg
}

var sinkImage []byte

// BenchmarkCapture exports and encodes a 16 MiB device holding a parked
// VA episode.
func BenchmarkCapture(b *testing.B) {
	d, _, _ := parkedOn(b, benchConfig(), preempt.CTXBack, mustWorkload(b, "VA"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkImage = Capture(d, 1)
	}
	b.SetBytes(int64(len(sinkImage)))
}

// BenchmarkRestore revives that image speculatively onto a warm shell
// and settles the deferred memory checksum, as a migration does. The
// technique and the pool refill are set-up, outside the timer.
func BenchmarkRestore(b *testing.B) {
	cfg := benchConfig()
	wl := mustWorkload(b, "VA")
	d, _, _ := parkedOn(b, cfg, preempt.CTXBack, wl)
	_, enc := Capture(d, 1)
	pool, err := NewPool(cfg, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tech, err := preempt.New(preempt.CTXBack, wl.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Refill(1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Restore(pool, enc, enc, 1, tech, wl.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
