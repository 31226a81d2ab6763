// Package sched implements a deterministic multi-tenant preemptive GPU
// scheduler on top of the simulator: N tenants submit Table-I kernel
// launches over time, the scheduler multiplexes them across the device's
// SMs, and higher-priority arrivals preempt lower-priority running jobs
// through the sim's Episode machinery using any preempt.Kind. Because
// every decision is a pure function of the seeded arrival trace and the
// simulator's deterministic clock, the same trace replayed under two
// techniques differs only by the techniques' context-switch costs —
// which is exactly the comparison the paper's motivation (§I, §II-B:
// multi-tenant GPU sharing needs low-latency preemption) calls for.
package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// Job is one tenant's kernel-launch request.
type Job struct {
	ID       int
	Tenant   int
	Kernel   string // Table-I abbreviation
	Arrival  int64  // cycle the request reaches the scheduler
	Priority int    // higher preempts lower
}

// TraceConfig seeds the deterministic arrival-trace generator.
type TraceConfig struct {
	Seed       int64
	NumJobs    int
	NumTenants int
	// MaxPriority bounds the priority draw: priorities are uniform in
	// [0, MaxPriority].
	MaxPriority int
	// MeanGapCycles is the mean inter-arrival gap.
	MeanGapCycles int64
	// Kernels is the abbreviation pool jobs draw from. Empty uses
	// DefaultKernelPool (the Table-I kernels every extended technique,
	// including SM-flushing, can compile).
	Kernels []string

	// Process selects the inter-arrival process. "" and "uniform" draw
	// gaps uniform in [0, 2*MeanGapCycles] — byte-compatible with traces
	// generated before the knob existed. "poisson" draws exponential
	// gaps, the memoryless open-loop arrivals a serving system sees.
	Process string
	// DurationCycles, when > 0, ends the trace at the first arrival past
	// the horizon. With NumJobs > 0 both bounds apply; with NumJobs == 0
	// the horizon is the sole bound (open-loop generation).
	DurationCycles int64
	// DiurnalAmplitude in [0, 1) modulates the arrival rate sinusoidally:
	// the instantaneous rate is the base rate times
	// 1 + A*sin(2*pi*t/DiurnalPeriod), so peaks arrive A times faster
	// than the mean and troughs A times slower.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period in cycles; 0 defaults to
	// 256*MeanGapCycles.
	DiurnalPeriod int64
	// BurstFraction in [0, 1] marks the lowest ceil(frac*NumTenants)
	// tenant ids as bursty: each of their arrivals expands into a run of
	// closely spaced jobs (mean run length BurstLen, intra-run gaps
	// around MeanGapCycles/8).
	BurstFraction float64
	// BurstLen is the mean burst run length for bursty tenants; 0
	// defaults to 4 when BurstFraction > 0.
	BurstLen int
}

// maxTraceJobs caps open-loop generation so a mis-scaled rate/duration
// pair fails loudly instead of allocating without bound.
const maxTraceJobs = 5_000_000

// validate applies defaults and rejects configurations whose draws
// would overflow or never terminate.
func (tc *TraceConfig) validate() error {
	if tc.NumJobs < 0 {
		return fmt.Errorf("sched: NumJobs %d is negative", tc.NumJobs)
	}
	if tc.NumJobs == 0 && tc.DurationCycles <= 0 {
		tc.NumJobs = 8
	}
	if tc.NumTenants <= 0 {
		tc.NumTenants = 3
	}
	if tc.MaxPriority <= 0 {
		tc.MaxPriority = 3
	}
	if tc.MeanGapCycles <= 0 {
		tc.MeanGapCycles = 20_000
	}
	// The uniform draw is Int63n(2*mean+1): beyond half the int64 range
	// the bound wraps negative and Int63n panics.
	if tc.MeanGapCycles > math.MaxInt64/2-1 {
		return fmt.Errorf("sched: MeanGapCycles %d overflows the uniform gap draw (max %d)",
			tc.MeanGapCycles, int64(math.MaxInt64/2-1))
	}
	switch tc.Process {
	case "", "uniform", "poisson":
	default:
		return fmt.Errorf("sched: unknown arrival process %q (want uniform or poisson)", tc.Process)
	}
	if tc.DiurnalAmplitude < 0 || tc.DiurnalAmplitude >= 1 {
		return fmt.Errorf("sched: DiurnalAmplitude %v outside [0, 1)", tc.DiurnalAmplitude)
	}
	if tc.DiurnalAmplitude > 0 && tc.DiurnalPeriod <= 0 {
		tc.DiurnalPeriod = 256 * tc.MeanGapCycles
	}
	if tc.BurstFraction < 0 || tc.BurstFraction > 1 {
		return fmt.Errorf("sched: BurstFraction %v outside [0, 1]", tc.BurstFraction)
	}
	if tc.BurstFraction > 0 && tc.BurstLen <= 0 {
		tc.BurstLen = 4
	}
	return nil
}

// GenTrace expands the config into a concrete arrival trace. The same
// config always yields the same trace (single seeded source, fixed draw
// order: gap, tenant, kernel, priority per job). With the process,
// diurnal and burst knobs at their zero values the draw sequence is
// byte-identical to the original uniform generator.
func GenTrace(tc TraceConfig) ([]Job, error) {
	if err := tc.validate(); err != nil {
		return nil, err
	}
	pool := tc.Kernels
	if len(pool) == 0 {
		var err error
		pool, err = DefaultKernelPool()
		if err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	burstyTenants := int(math.Ceil(tc.BurstFraction * float64(tc.NumTenants)))
	var jobs []Job
	var arrival int64
	burstLeft, burstTenant := 0, 0
	for {
		if tc.NumJobs > 0 && len(jobs) >= tc.NumJobs {
			break
		}
		if len(jobs) >= maxTraceJobs {
			return nil, fmt.Errorf("sched: trace exceeds %d jobs before the %d-cycle horizon; raise the gap or shrink the duration",
				maxTraceJobs, tc.DurationCycles)
		}
		var tenant int
		if burstLeft > 0 {
			intra := tc.MeanGapCycles / 8
			if intra < 1 {
				intra = 1
			}
			arrival += 1 + rng.Int63n(intra)
			tenant = burstTenant
			burstLeft--
		} else {
			arrival += drawGap(rng, tc, arrival)
			tenant = rng.Intn(tc.NumTenants)
			if tenant < burstyTenants {
				// This arrival heads a run; the rest follow at intra-burst
				// gaps. Mean extra length BurstLen-1 keeps the run mean at
				// BurstLen.
				burstLeft = rng.Intn(2*tc.BurstLen - 1)
				burstTenant = tenant
			}
		}
		if tc.DurationCycles > 0 && arrival > tc.DurationCycles {
			break
		}
		jobs = append(jobs, Job{
			ID:       len(jobs),
			Tenant:   tenant,
			Kernel:   pool[rng.Intn(len(pool))],
			Arrival:  arrival,
			Priority: rng.Intn(tc.MaxPriority + 1),
		})
	}
	return jobs, nil
}

// drawGap draws one inter-arrival gap at trace time t under the
// configured process and diurnal modulation.
func drawGap(rng *rand.Rand, tc TraceConfig, t int64) int64 {
	m := tc.MeanGapCycles
	if tc.DiurnalAmplitude > 0 {
		rate := 1 + tc.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/float64(tc.DiurnalPeriod))
		m = int64(float64(m) / rate)
		switch {
		case m < 1:
			m = 1
		case m > math.MaxInt64/2-1:
			m = math.MaxInt64/2 - 1
		}
	}
	if tc.Process == "poisson" {
		g := rng.ExpFloat64() * float64(m)
		if g >= math.MaxInt64/4 {
			g = math.MaxInt64 / 4
		}
		return int64(g)
	}
	// Uniform in [0, 2*mean]. With no diurnal modulation this stays the
	// historical Int63n(2*MeanGapCycles+1) draw on the untouched int64,
	// byte-compatible with pre-knob traces.
	return rng.Int63n(2*m + 1)
}

var (
	poolMu   sync.Mutex
	poolList []string
	poolDone bool
)

// DefaultKernelPool returns the Table-I kernels whose programs every
// extended technique can compile. SM-flushing refuses non-idempotent
// kernels, so a trace meant to compare all eight techniques must draw
// from this subset; the filter is computed once, in registry order.
// Only success is memoized — a transient construction failure is
// reported to the caller and retried on the next call rather than
// pinning every future trace to an empty pool.
func DefaultKernelPool() ([]string, error) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolDone {
		return append([]string(nil), poolList...), nil
	}
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		return nil, fmt.Errorf("sched: default kernel pool: %w", err)
	}
	var list []string
	for _, wl := range wls {
		ok := true
		for _, k := range preempt.ExtendedKinds() {
			if _, err := preempt.New(k, wl.Prog); err != nil {
				ok = false
				break
			}
		}
		if ok {
			list = append(list, wl.Abbrev)
		}
	}
	if len(list) == 0 {
		return nil, errors.New("sched: default kernel pool is empty")
	}
	poolList, poolDone = list, true
	return append([]string(nil), poolList...), nil
}

// Config configures one scheduled run.
type Config struct {
	Dev    sim.Config
	Params kernels.Params
	// SlabBytes is the per-job device-memory slab; job i's buffers live
	// at 4096 + i*SlabBytes so tenants never alias. 0 picks a default
	// sized to the device memory and job count.
	SlabBytes int
	MaxCycles int64
	// Verify checks every job's output against its CPU golden reference
	// after the schedule drains.
	Verify bool
	// Metrics, when non-nil, receives per-tenant counters and latency
	// histograms after the run.
	Metrics *trace.Registry
	// Shards is ignored: every device runs its one serial loop.
	//
	// Deprecated: it selected the width of the epoch-parallel engine,
	// which is gone. The benchmark still sets it; the benchmark change
	// that redefines its sharded-episode workload removes it.
	Shards int
}

// DefaultSchedConfig is the configuration cmd/schedsim and the harness
// comparison start from.
func DefaultSchedConfig() Config {
	return Config{
		Dev:       sim.DefaultConfig(),
		Params:    kernels.TestParams(),
		MaxCycles: 2_000_000_000,
		Verify:    true,
	}
}

// Event is one entry of the run's decision log. The log is part of the
// deterministic output: two runs of the same trace and technique must
// produce identical logs.
type Event struct {
	Cycle int64
	What  string // arrive, start, preempt, park, resume, resumed, complete
	Job   int
	SM    int // -1 when not SM-bound (arrive)
}

func (e Event) String() string {
	return fmt.Sprintf("%10d %-8s job=%d sm=%d", e.Cycle, e.What, e.Job, e.SM)
}

// smState is the scheduler's per-SM state machine.
type smState int

const (
	smIdle     smState = iota
	smRunning          // cur is executing
	smSaving           // victim's episode is draining/saving; cur is the incoming job
	smResuming         // cur's parked episode is restoring/replaying
)

// runJob is a Job's runtime state across the schedule.
type runJob struct {
	job    Job
	wl     *kernels.Workload
	launch *sim.Launch
	sm     int

	// admitAt is the cycle the scheduler first considers the job: the
	// trace arrival under Run, the admission barrier under Serve.
	// Queueing and turnaround statistics always measure from the
	// original Job.Arrival.
	admitAt int64

	started  bool
	start    int64 // first placement cycle
	complete int64

	preemptions int
	episode     *sim.Episode // parked episode while suspended

	// delivered marks a failover replay: a killed device already
	// delivered this job's output after the checkpoint its replacement
	// restored. The job still runs, keeping the restored schedule
	// cycle-exact, but its completion is not counted again.
	delivered bool
	// digest is the job's slab digest at completion (ServeConfig.StateHash).
	digest uint64
}

type smSlot struct {
	id     int
	state  smState
	cur    *runJob   // Running/Resuming: the active job; Saving: the incoming job
	victim *runJob   // Saving: the job being swapped out
	parked []*runJob // suspended jobs awaiting resume on this SM
}

type scheduler struct {
	cfg  Config
	d    *sim.Device
	mux  *muxRuntime
	kind preempt.Kind

	jobs    []*runJob // admission order
	slots   []*smSlot
	waiting []*runJob
	nextArr int

	// progOrder lists the distinct programs in first-launch order —
	// exactly the order sim.ExportState serializes them, so a checkpoint
	// of this device restores against progOrder positionally.
	progOrder []*isa.Program
	progSeen  map[*isa.Program]bool

	// onComplete, when set, observes every job completion on this
	// scheduler's device (the serving layer copies results host-side at
	// this point, so a later device kill cannot lose delivered output).
	onComplete func(*runJob)

	// quota, when non-nil, caps each tenant's concurrently held SMs on
	// this device (the serving hypervisor's share re-arbitration writes
	// it at window boundaries). Tenants absent from the map hold 0, so a
	// populated map must cover every admissible tenant.
	quota map[int]int

	events []Event
	nDone  int
}

// Run executes the arrival trace under one preemption technique and
// returns the per-job and per-tenant statistics. The run is a single
// deterministic simulation: no goroutines, no map-order dependence, no
// wall-clock input.
func Run(cfg Config, kind preempt.Kind, jobs []Job) (*Result, error) {
	s, err := newScheduler(cfg, kind, jobs)
	if err != nil {
		return nil, err
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result()
}

const slabBase = 4096

func newScheduler(cfg Config, kind preempt.Kind, jobs []Job) (*scheduler, error) {
	if len(jobs) == 0 {
		return nil, errors.New("sched: empty trace")
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	if cfg.SlabBytes <= 0 {
		cfg.SlabBytes = (cfg.Dev.GlobalMemBytes - slabBase) / len(jobs)
		cfg.SlabBytes -= cfg.SlabBytes % 4096
	}
	if slabBase+len(jobs)*cfg.SlabBytes > cfg.Dev.GlobalMemBytes {
		return nil, fmt.Errorf("sched: %d x %d-byte slabs exceed device memory (%d bytes)",
			len(jobs), cfg.SlabBytes, cfg.Dev.GlobalMemBytes)
	}
	d, err := sim.NewDevice(cfg.Dev)
	if err != nil {
		return nil, err
	}
	s := &scheduler{cfg: cfg, d: d, mux: newMux(kind), kind: kind,
		progSeen: make(map[*isa.Program]bool)}
	// Jobs are admitted in (arrival, ID) order; ties resolve by ID so
	// simultaneous arrivals admit deterministically.
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})
	for i, j := range ordered {
		p := cfg.Params
		p.MemBase = slabBase + i*cfg.SlabBytes
		wl, err := kernels.ByAbbrev(j.Kernel, p)
		if err != nil {
			return nil, fmt.Errorf("sched: job %d: %w", j.ID, err)
		}
		// Each job fills every warp slot of its SM (the paper's
		// persistent-kernel batch model): preemption is the ONLY way a
		// newcomer gets on, and a parked job's pending blocks can never
		// race its own resume.
		occ, err := d.ComputeOccupancy(wl.Prog, p.WarpsPerBlock)
		if err != nil {
			return nil, fmt.Errorf("sched: job %d (%s): %w", j.ID, j.Kernel, err)
		}
		p.NumBlocks = occ.BlocksPerSM
		wl, err = kernels.ByAbbrev(j.Kernel, p)
		if err != nil {
			return nil, fmt.Errorf("sched: job %d: %w", j.ID, err)
		}
		tech, err := preempt.New(kind, wl.Prog)
		if err != nil {
			return nil, fmt.Errorf("sched: job %d (%s) under %v: %w", j.ID, j.Kernel, kind, err)
		}
		s.mux.add(wl.Prog, tech)
		s.jobs = append(s.jobs, &runJob{job: j, wl: wl, sm: -1, admitAt: j.Arrival})
	}
	d.AttachRuntime(s.mux)
	for i := 0; i < cfg.Dev.NumSMs; i++ {
		s.slots = append(s.slots, &smSlot{id: i, state: smIdle})
	}
	return s, nil
}

func (s *scheduler) log(cycle int64, what string, job, sm int) {
	s.events = append(s.events, Event{Cycle: cycle, What: what, Job: job, SM: sm})
}

// run drives the whole schedule to completion and verifies it.
func (s *scheduler) run() error {
	done, err := s.runTo(math.MaxInt64)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("sched: run paused at cycle %d with %d/%d jobs complete",
			s.d.Now(), s.nDone, len(s.jobs))
	}
	return s.verify()
}

// runTo drives the event loop — admit arrivals, poll episode/launch
// transitions, assign freed SMs, then step the simulator to the next
// event (or fast-forward an idle device to the next arrival) — until
// every job completes (true) or the clock reaches stop (false), the
// serve loop's next barrier. The pause is a plain observation
// point: warps may be mid-flight, mid-save or parked, exactly what a
// whole-device snapshot must capture. At stop=MaxInt64 the pause terms
// never fire and the loop is the original whole-run loop, byte for
// byte — the sched-smoke golden pins that.
func (s *scheduler) runTo(stop int64) (bool, error) {
	cond := s.eventReady
	if stop != math.MaxInt64 {
		cond = func() bool { return s.d.Now() >= stop || s.eventReady() }
	}
	for {
		for {
			changed, err := s.admitArrivals()
			if err != nil {
				return false, err
			}
			if c, err := s.pollTransitions(); err != nil {
				return false, err
			} else if c {
				changed = true
			}
			if c, err := s.assignIdle(); err != nil {
				return false, err
			} else if c {
				changed = true
			}
			if !changed {
				break
			}
		}
		if s.nDone == len(s.jobs) {
			return true, nil
		}
		if s.d.Now() >= stop {
			return false, nil
		}
		if err := s.d.RunUntil(cond, s.cfg.MaxCycles); err != nil {
			return false, err
		}
		if s.eventReady() {
			continue
		}
		if s.d.Now() >= stop {
			return false, nil
		}
		// The device cannot make progress and no transition is ready:
		// everything is either parked or not yet arrived.
		if s.nextArr < len(s.jobs) {
			adv := s.jobs[s.nextArr].admitAt
			if stop < adv {
				adv = stop
			}
			s.d.AdvanceTo(adv)
			continue
		}
		// A quota-stalled device is not deadlocked: every queued or
		// parked job belongs to a tenant at its SM cap, and only a
		// completion elsewhere in the window or the hypervisor's next
		// re-arbitration can free it. Pause at the window boundary and
		// report "not done" instead of erroring.
		if s.quotaStalled(stop) {
			s.d.AdvanceTo(stop)
			return false, nil
		}
		// The ready queue's O(1) head peek distinguishes a truly empty
		// device from an indexed issue that never became runnable (which
		// would indicate a scheduler bug, not a workload deadlock).
		if next, ok := s.d.NextIssueTime(); ok {
			return false, fmt.Errorf("sched: deadlock at cycle %d: %d/%d jobs complete, next indexed issue at cycle %d never ran",
				s.d.Now(), s.nDone, len(s.jobs), next)
		}
		return false, fmt.Errorf("sched: deadlock at cycle %d: %d/%d jobs complete, nothing runnable (no pending issue indexed)",
			s.d.Now(), s.nDone, len(s.jobs))
	}
}

// quotaStalled reports whether the only thing keeping this device from
// progressing is the tenant quota map: there is pending work (waiting
// or parked) but every candidate's tenant is at its cap. Only
// meaningful at a finite pause boundary — a whole-run drive to
// MaxInt64 must surface the stall as the deadlock it would be.
func (s *scheduler) quotaStalled(stop int64) bool {
	if s.quota == nil || stop == math.MaxInt64 {
		return false
	}
	pending := len(s.waiting) > 0
	for _, sl := range s.slots {
		if len(sl.parked) > 0 {
			pending = true
		}
	}
	return pending
}

func (s *scheduler) eventReady() bool {
	if s.nextArr < len(s.jobs) && s.d.Now() >= s.jobs[s.nextArr].admitAt {
		return true
	}
	for _, sl := range s.slots {
		switch sl.state {
		case smSaving:
			if sl.victim.episode.Saved() {
				return true
			}
		case smResuming:
			if sl.cur.episode.Finished() {
				return true
			}
		case smRunning:
			if sl.cur.launch.Done() {
				return true
			}
		}
	}
	return false
}

// tenantActive counts the SMs tenant t currently holds or is acquiring
// on this device: a Running/Resuming slot's active job and a Saving
// slot's incoming job (the outgoing victim is releasing, not holding).
func (s *scheduler) tenantActive(t int) int {
	n := 0
	for _, sl := range s.slots {
		if sl.state != smIdle && sl.cur != nil && sl.cur.job.Tenant == t {
			n++
		}
	}
	return n
}

// underQuota reports whether tenant t may take one more SM here.
func (s *scheduler) underQuota(t int) bool {
	return s.quota == nil || s.tenantActive(t) < s.quota[t]
}

// admitArrivals admits every job whose admission cycle has passed:
// place on an idle SM, else preempt the lowest-priority strictly-lower
// running job, else queue. A tenant at its SM quota queues regardless —
// completions and the next re-arbitration free it.
func (s *scheduler) admitArrivals() (bool, error) {
	changed := false
	for s.nextArr < len(s.jobs) && s.jobs[s.nextArr].admitAt <= s.d.Now() {
		j := s.jobs[s.nextArr]
		s.nextArr++
		changed = true
		s.log(j.admitAt, "arrive", j.job.ID, -1)
		if !s.underQuota(j.job.Tenant) {
			s.waiting = append(s.waiting, j)
			continue
		}
		if sl := s.pickIdle(j); sl != nil {
			if err := s.place(j, sl); err != nil {
				return false, err
			}
			continue
		}
		if sl := s.pickVictim(j); sl != nil {
			if err := s.preemptFor(j, sl); err != nil {
				return false, err
			}
			continue
		}
		s.waiting = append(s.waiting, j)
	}
	return changed, nil
}

// pickIdle returns the lowest-numbered idle SM with physical headroom
// for at least one of j's blocks, or nil. An idle SM can still be
// crowded by done-warp residue of parked tenants; placing a grid that
// lands zero blocks would wedge the slot (nothing resident, no event).
func (s *scheduler) pickIdle(j *runJob) *smSlot {
	for _, sl := range s.slots {
		if sl.state == smIdle && s.d.CanHostBlock(sl.id, j.wl.Prog, j.wl.WarpsPerBlock) {
			return sl
		}
	}
	return nil
}

// pickVictim returns the Running slot whose job has the lowest priority
// strictly below j's (ties: latest arrival — preempt the newest work —
// then lowest SM id), or nil when no running job may be displaced. A
// slot that even after saving its victim could not host one of j's
// blocks is not a candidate: the displacement would evict a job without
// getting the newcomer resident.
func (s *scheduler) pickVictim(j *runJob) *smSlot {
	var best *smSlot
	for _, sl := range s.slots {
		if sl.state != smRunning || sl.cur.job.Priority >= j.job.Priority {
			continue
		}
		if !s.d.CanDisplace(sl.id, sl.cur.launch, j.wl.Prog, j.wl.WarpsPerBlock) {
			continue
		}
		if best == nil {
			best = sl
			continue
		}
		b, c := best.cur.job, sl.cur.job
		if c.Priority < b.Priority || (c.Priority == b.Priority && c.Arrival > b.Arrival) {
			best = sl
		}
	}
	return best
}

// place launches j pinned to slot sl (which must be idle). Blocks land
// immediately: the SM has every slot free.
func (s *scheduler) place(j *runJob, sl *smSlot) error {
	if err := s.launch(j, sl.id); err != nil {
		return err
	}
	sl.state = smRunning
	sl.cur = j
	if !j.started {
		j.started = true
		j.start = s.d.Now()
	}
	s.log(s.d.Now(), "start", j.job.ID, sl.id)
	return nil
}

// preemptFor raises a preemption episode against sl's running job and
// launches j pinned to the SM; j's blocks place the moment the victim's
// last context store lands (the sim's save-complete redispatch). A
// drained victim (all warps already retired) is not an error — the SM
// is about to free, so j just queues.
func (s *scheduler) preemptFor(j *runJob, sl *smSlot) error {
	ep, err := s.d.Preempt(sl.id, s.mux)
	if errors.Is(err, sim.ErrDrained) {
		s.waiting = append(s.waiting, j)
		return nil
	}
	if err != nil {
		return fmt.Errorf("sched: preempting job %d for job %d: %w", sl.cur.job.ID, j.job.ID, err)
	}
	// The episode must have swept exactly the victim job's warps: a
	// foreign victim means another launch had live warps on the SM, and
	// resuming that episode through this job would restore state the
	// scheduler attributes to someone else. Fail loudly — a silent mixed
	// episode wedges the slot forever.
	own := make(map[*sim.Warp]bool, len(sl.cur.launch.Warps))
	for _, w := range sl.cur.launch.Warps {
		own[w] = true
	}
	for _, vw := range ep.Victims {
		if !own[vw] {
			return fmt.Errorf("sched: preempting job %d on SM %d swept warp %d of a different launch (%s)",
				sl.cur.job.ID, sl.id, vw.ID, vw.Prog.Name)
		}
	}
	v := sl.cur
	v.episode = ep
	v.preemptions++
	s.log(s.d.Now(), "preempt", v.job.ID, sl.id)
	sl.state = smSaving
	sl.victim = v
	sl.cur = j
	return s.launch(j, sl.id)
}

func (s *scheduler) launch(j *runJob, sm int) error {
	if j.launch != nil {
		return fmt.Errorf("sched: job %d launched twice", j.job.ID)
	}
	if j.wl.Init != nil {
		if err := j.wl.Init(s.d); err != nil {
			return fmt.Errorf("sched: job %d init: %w", j.job.ID, err)
		}
	}
	l, err := s.d.Launch(sim.LaunchSpec{
		Prog:          j.wl.Prog,
		NumBlocks:     j.wl.NumBlocks,
		WarpsPerBlock: j.wl.WarpsPerBlock,
		Setup:         j.wl.WarpSetup,
		SMFilter:      []int{sm},
	})
	if err != nil {
		return fmt.Errorf("sched: job %d launch: %w", j.job.ID, err)
	}
	j.launch = l
	j.sm = sm
	if !s.progSeen[j.wl.Prog] {
		s.progSeen[j.wl.Prog] = true
		s.progOrder = append(s.progOrder, j.wl.Prog)
	}
	return nil
}

// pollTransitions advances the per-SM state machines on episode and
// launch boundaries.
func (s *scheduler) pollTransitions() (bool, error) {
	changed := false
	for _, sl := range s.slots {
		switch sl.state {
		case smSaving:
			if !sl.victim.episode.Saved() {
				continue
			}
			v := sl.victim
			sl.victim = nil
			sl.parked = append(sl.parked, v)
			s.log(v.episode.AllSavedCycle, "park", v.job.ID, sl.id)
			sl.state = smRunning
			inc := sl.cur
			if !inc.started {
				inc.started = true
				// The SM is physically free at the last context store,
				// which is where the incoming blocks were placed.
				inc.start = v.episode.AllSavedCycle
			}
			s.log(inc.start, "start", inc.job.ID, sl.id)
			changed = true
		case smResuming:
			if !sl.cur.episode.Finished() {
				continue
			}
			s.log(sl.cur.episode.AllResumed, "resumed", sl.cur.job.ID, sl.id)
			sl.cur.episode = nil
			sl.state = smRunning
			changed = true
		case smRunning:
			if !sl.cur.launch.Done() {
				continue
			}
			j := sl.cur
			j.complete = launchEnd(j.launch)
			s.log(j.complete, "complete", j.job.ID, sl.id)
			sl.cur = nil
			sl.state = smIdle
			s.nDone++
			if s.onComplete != nil {
				s.onComplete(j)
			}
			changed = true
		}
	}
	return changed, nil
}

// launchEnd is the cycle the launch's last warp fully retired
// (including outstanding stores) — deterministic, unlike the event
// loop's observation cycle.
func launchEnd(l *sim.Launch) int64 {
	var end int64
	for _, w := range l.Warps {
		if w.ReadyAt > end {
			end = w.ReadyAt
		}
	}
	return end
}

// assignIdle hands each idle SM its next job: the highest-priority
// candidate among the global waiting queue and the SM's own parked
// victims (ties: earlier arrival, then lower job ID; a parked job wins
// a full tie — it has already paid a context switch).
func (s *scheduler) assignIdle() (bool, error) {
	changed := false
	for _, sl := range s.slots {
		if sl.state != smIdle {
			continue
		}
		wi := s.bestStartable(sl, s.waiting)
		pi := s.bestResumable(sl.parked)
		if wi < 0 && pi < 0 {
			continue
		}
		usePark := pi >= 0 && (wi < 0 || !jobLess(s.waiting[wi].job, sl.parked[pi].job))
		if usePark {
			v := sl.parked[pi]
			sl.parked = append(sl.parked[:pi], sl.parked[pi+1:]...)
			if err := s.d.Resume(v.episode); err != nil {
				return false, fmt.Errorf("sched: resuming job %d: %w", v.job.ID, err)
			}
			sl.state = smResuming
			sl.cur = v
			s.log(v.episode.ResumeStart, "resume", v.job.ID, sl.id)
		} else {
			if err := s.place(s.waiting[wi], sl); err != nil {
				return false, err
			}
			s.waiting = append(s.waiting[:wi], s.waiting[wi+1:]...)
		}
		changed = true
	}
	return changed, nil
}

// jobLess orders jobs for dispatch: higher priority first, then earlier
// arrival, then lower ID.
func jobLess(a, b Job) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// bestIndex returns the index of the best job under jobLess, or -1.
func bestIndex(js []*runJob) int {
	best := -1
	for i, j := range js {
		if best < 0 || jobLess(j.job, js[best].job) {
			best = i
		}
	}
	return best
}

// bestEligible is bestIndex restricted to jobs whose tenant is under
// its SM quota; with no quota map it is exactly bestIndex.
// bestResumable is bestEligible restricted to parked victims whose SM
// has physical headroom to take them back right now. Retired warps of a
// partially-finished block keep their slots until the whole block
// completes, so an SM can carry residue from several parked tenants;
// the most recently parked victim always fits (its launch fit alongside
// all of today's residue), so skipping unresumable ones cannot deadlock.
func (s *scheduler) bestResumable(parked []*runJob) int {
	best := -1
	for i, j := range parked {
		if !s.d.CanResume(j.episode) {
			continue
		}
		if s.quota != nil && !s.underQuota(j.job.Tenant) {
			continue
		}
		if best < 0 || jobLess(j.job, parked[best].job) {
			best = i
		}
	}
	return best
}

func (s *scheduler) bestEligible(js []*runJob) int {
	if s.quota == nil {
		return bestIndex(js)
	}
	best := -1
	for i, j := range js {
		if !s.underQuota(j.job.Tenant) {
			continue
		}
		if best < 0 || jobLess(j.job, js[best].job) {
			best = i
		}
	}
	return best
}

// bestStartable is bestEligible restricted to jobs slot sl can
// physically host right now (see pickIdle for why a zero-block
// placement must never happen).
func (s *scheduler) bestStartable(sl *smSlot, js []*runJob) int {
	best := -1
	for i, j := range js {
		if !s.d.CanHostBlock(sl.id, j.wl.Prog, j.wl.WarpsPerBlock) {
			continue
		}
		if s.quota != nil && !s.underQuota(j.job.Tenant) {
			continue
		}
		if best < 0 || jobLess(j.job, js[best].job) {
			best = i
		}
	}
	return best
}

func (s *scheduler) verify() error {
	if !s.cfg.Verify {
		return nil
	}
	for _, j := range s.jobs {
		if err := j.wl.Verify(s.d); err != nil {
			return fmt.Errorf("sched: job %d (%s, tenant %d) output corrupt after scheduling: %w",
				j.job.ID, j.job.Kernel, j.job.Tenant, err)
		}
	}
	return nil
}
