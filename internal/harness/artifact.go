package harness

import (
	"fmt"

	"ctxback/internal/artifact"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
)

// Artifact-store integration: when the process-wide store persists to a
// directory (-cache-dir on the CLIs), the two expensive memoizations —
// prepared workloads (occupancy fill + full golden run) and the episode
// matrix — are also content-addressed on disk and shared across
// processes. They go through the store only then: the Runner keeps its
// own in-memory memo of both, scoped to the Runner, so a fresh Runner
// still runs its golden runs and episode matrix, and a memory-only
// store never pins a prepared workload's host arrays.

// Artifact kinds written by this package.
const (
	kindPrepared = "harness/prepared"
	kindMatrix   = "harness/matrix"
)

// keyInputs folds every Options field that can change a measured result
// into k: the full device model, the workload scale, and the run limits.
// Parallelism is excluded by design — the procs-diff gate proves
// results are independent of it — as are the observability hooks
// (Metrics, Logf), whose zero-overhead contract the evalcheck gate
// pins. The key-coverage regression test walks every included field.
func (o *Options) keyInputs(k *artifact.Key) {
	c := o.Cfg
	k.Int("sms", c.NumSMs).
		Int("maxwarps", c.MaxWarpsPerSM).
		Int("vregfile", c.VRegFileBytes).
		Int("sregfile", c.SRegFileBytes).
		Int("ldsper", c.LDSBytesPerSM).
		F64("clock", c.ClockGHz).
		Int("memlat", c.MemLatency).
		F64("membw", c.MemBytesPerCycle).
		F64("ctxbw", c.CtxBytesPerCycle).
		F64("ctxrestore", c.CtxRestoreFactor).
		Int("ldslat", c.LDSLatency).
		F64("ldsbw", c.LDSBytesPerCycle).
		Int("gmem", c.GlobalMemBytes)
	p := o.Params
	k.Int("blocks", p.NumBlocks).
		Int("warps", p.WarpsPerBlock).
		Int("iters", p.ItersPerWarp).
		I64("seed", p.Seed).
		Int("membase", p.MemBase)
	k.Bool("fill", o.FillDevice).
		Bool("verify", o.Verify).
		I64("maxcycles", o.MaxCycles)
}

// prepare sizes the workload grid and measures the uninterrupted run,
// loading the fill size and golden cycle count from the artifact store
// when possible — a warm hit skips the occupancy probe and the full
// golden simulation, leaving only the cheap host-side construction.
func (o *Options) prepare(factory kernels.Factory) (*prepared, error) {
	st := artifact.Default()
	if st.Dir() == "" {
		return o.prepareCold(factory)
	}
	base, err := factory(o.Params)
	if err != nil {
		return nil, err
	}
	d := base.Prog.Digest()
	k := artifact.NewKey(kindPrepared).Bytes("prog", d[:])
	o.keyInputs(k)
	v, err := st.Do(k, artifact.Codec{
		Encode: func(v any) []byte {
			pr := v.(*prepared)
			w := artifact.NewWriter()
			w.Int(pr.wl.NumBlocks)
			w.I64(pr.goldenCycles)
			return w.Data()
		},
		Decode: func(payload []byte) (any, error) {
			r := artifact.NewReader(payload)
			blocks := r.Int()
			golden := r.I64()
			if err := r.Close(); err != nil {
				return nil, err
			}
			p := o.Params
			p.NumBlocks = blocks
			wl, err := factory(p)
			if err != nil {
				return nil, err
			}
			return &prepared{wl: wl, goldenCycles: golden}, nil
		},
	}, func() (any, error) { return o.prepareCold(factory) })
	if err != nil {
		return nil, err
	}
	return v.(*prepared), nil
}

// matrixFor is measureMatrix through a persistent artifact store: the
// (kernel, kind) matrix is keyed by every prepared program's digest plus
// the options above, so a warm sweep deserializes its folded stats
// instead of re-simulating every episode. A miss measures the Runner's
// cells.
func (r *Runner) matrixFor(kinds []preempt.Kind) ([][]EpisodeStats, error) {
	// The key covers the prepared programs; preparing is itself
	// store-backed and cheap when warm.
	if err := r.prepareAll(); err != nil {
		return nil, err
	}
	k := artifact.NewKey(kindMatrix)
	r.o.keyInputs(k)
	k.Int("samples", r.o.Samples)
	k.Int("nkinds", len(kinds))
	for _, kd := range kinds {
		k.Int("kind", int(kd))
	}
	for i := range r.prep {
		d := r.prep[i].p.wl.Prog.Digest()
		k.Bytes("prog", d[:])
	}
	nk, nt := len(r.prep), len(kinds)
	v, err := artifact.Default().Do(k, artifact.Codec{
		Encode: func(v any) []byte { return encodeMatrix(v.([][]EpisodeStats)) },
		Decode: func(payload []byte) (any, error) { return decodeMatrix(payload, nk, nt) },
	}, func() (any, error) { return r.cellMatrix(kinds) })
	if err != nil {
		return nil, err
	}
	return v.([][]EpisodeStats), nil
}

func encodeMatrix(avg [][]EpisodeStats) []byte {
	w := artifact.NewWriter()
	w.Int(len(avg))
	for _, row := range avg {
		w.Int(len(row))
		for _, st := range row {
			w.I64(st.PreemptCycles)
			w.I64(st.ResumeCycles)
			w.I64(st.SavedBytes)
			w.I64(st.Victims)
			w.I64(st.DrainCycles)
			w.I64(st.SaveCycles)
			w.I64(st.RestoreCycles)
			w.I64(st.ReplayCycles)
		}
	}
	return w.Data()
}

func decodeMatrix(payload []byte, nk, nt int) ([][]EpisodeStats, error) {
	r := artifact.NewReader(payload)
	rows := r.Len(8) // each row's cell count
	if rows != nk {
		return nil, fmt.Errorf("harness: decode matrix: %d rows (want %d)", rows, nk)
	}
	avg := make([][]EpisodeStats, rows)
	for i := range avg {
		cols := r.Len(8 * 8)
		if cols != nt {
			return nil, fmt.Errorf("harness: decode matrix: row %d has %d cells (want %d)", i, cols, nt)
		}
		avg[i] = make([]EpisodeStats, cols)
		for j := range avg[i] {
			st := &avg[i][j]
			st.PreemptCycles = r.I64()
			st.ResumeCycles = r.I64()
			st.SavedBytes = r.I64()
			st.Victims = r.I64()
			st.DrainCycles = r.I64()
			st.SaveCycles = r.I64()
			st.RestoreCycles = r.I64()
			st.ReplayCycles = r.I64()
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return avg, nil
}
