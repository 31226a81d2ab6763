package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
	"ctxback/internal/trace"
)

// Serve mode grows the scheduler into a long-running multi-device
// serving system: an open-loop arrival trace flows through admission
// control (admit.go) onto a fleet of devices behind deterministic
// load-aware routing, while the hypervisor (hypervisor.go) re-arbitrates
// per-tenant SM shares and rebalances devices through checkpoint +
// warm-pool restore, and failover (failover.go) checkpoints devices and
// survives a device kill. Devices advance independently between global
// admission barriers — the parallel axis — and every cross-device
// decision runs serially at a barrier on state merged in device-id
// order, so the decision log and SLO tables are byte-identical at every
// worker count.

// ServeConfig configures a serving run.
type ServeConfig struct {
	// Sched carries the device model, kernel scale, verify and metrics
	// settings. SlabBytes must divide the usable device memory into the
	// per-device slab pool (0 picks SlabsPerDevice even slabs).
	Sched Config
	// Devices is the initial fleet size (migration and failover retire
	// and add device ids, keeping the alive count constant). Default 2.
	Devices int
	// Workers caps how many devices advance concurrently between
	// barriers; 0/1 is serial. Output is identical at every setting.
	Workers int
	// AdmitEvery is the admission/routing barrier cadence in cycles.
	// Default 2000.
	AdmitEvery int64
	// SlabsPerDevice bounds each device's outstanding jobs (a job holds
	// one memory slab from admission to completion). Default 8 — the
	// slab pool divides device memory, and filled-SM workloads overflow
	// slabs much under a few megabytes.
	SlabsPerDevice int
	// WarmPool pre-builds this many warm device shells for migration and
	// failover restores. 0 restores cold.
	WarmPool int
	// ReportEvery is the decision-log aggregate cadence; 0 defaults to
	// Hypervisor.Every, else 16 admission windows.
	ReportEvery int64
	// CheckpointEvery is the whole-device checkpoint cadence in cycles,
	// rounded up to the admission window. 0 takes no checkpoints.
	CheckpointEvery int64
	// Kill, when non-nil, destroys one device mid-run (failover.go).
	Kill *DeviceKill
	// StateHash computes the per-job slab-digest witness
	// (ServeResult.StateHash).
	StateHash bool

	// DecisionSink, when non-nil, receives each decision-log line
	// (rendered with ServeEvent.String) the moment it is emitted,
	// instead of the run accumulating events in memory. With a sink set,
	// ServeResult.Events stays empty; callers that need the log after
	// the tables (the schedsim golden does) spool the sink to a file and
	// replay it. The caller flushes the sink.
	DecisionSink *trace.LineSink

	Admit      AdmitConfig
	Hypervisor HypervisorConfig
}

// ServeEvent is one line of the serving decision log.
type ServeEvent struct {
	Cycle  int64
	What   string // window, shed, shares, starve-boost, migrate, checkpoint, kill, restore-warm, restore-cold, replace
	Tenant int    // -1 when fleet-scoped
	Device int    // -1 when not device-bound
	Detail string
}

func (e ServeEvent) String() string {
	return fmt.Sprintf("%10d %-13s t=%-3d dev=%-3d %s", e.Cycle, e.What, e.Tenant, e.Device, e.Detail)
}

// TenantSLO is one tenant's service-level summary.
type TenantSLO struct {
	Tenant    int
	Arrived   int
	Admitted  int
	Shed      int
	Completed int
	// ShedPerMille is Shed*1000/Arrived (0 when nothing arrived).
	ShedPerMille int64
	Preemptions  int64
	// MeanQueueCycles averages arrival -> first placement over completed
	// jobs (admission deferral included).
	MeanQueueCycles int64
	// P50/P95/P99 are exact nearest-rank turnaround percentiles over
	// completed jobs.
	P50, P95, P99 int64
}

// ServeResult is a serving run's deterministic outcome.
type ServeResult struct {
	Kind     preempt.Kind
	Duration int64 // final barrier cycle
	Makespan int64 // last completion cycle

	Arrived, Admitted, Shed, Completed int
	TotalPreemptions                   int64
	Rearbitrations, Migrations         int
	StarveBoosts                       int

	P50, P95, P99 int64
	Tenants       []TenantSLO

	// PreemptionJain and ThroughputJain are Jain fairness indices over
	// per-tenant preemptions-per-completed-job and completed counts.
	PreemptionJain, ThroughputJain float64

	Events []ServeEvent

	// StateHash is the per-job slab-digest witness, one line per
	// delivered job in (arrival, ID) order; empty unless
	// ServeConfig.StateHash.
	StateHash string
}

// serveDevice wraps one scheduler with the serving layer's host-side
// state: the slab pool bounding its outstanding jobs, per-tenant
// admitted-incomplete counts, the routing block after a restore, and the
// latest failover checkpoint.
type serveDevice struct {
	id      int
	s       *scheduler
	retired bool
	done    bool

	slabFree   []bool      // index -> free
	slabOf     map[int]int // jobID -> slab index
	incomplete []int       // per tenant, admitted minus completed

	blockedUntil int64 // routing exclusion after a restore
	ckpt         *ckpt // latest periodic checkpoint, nil when none

	// completion buffer, filled inside the device's window advance
	// (goroutine-local), drained at the barrier in device-id order.
	completedWin []*runJob
	verifyErr    error
}

func (d *serveDevice) outstanding() int { return len(d.s.jobs) - d.s.nDone }

// retire marks the device retired and drops its scheduler, simulated
// device and checkpoint. Call it once its jobs have been carried or
// requeued. The entry stays in sv.devices, so device ids stay stable,
// and every loop over the devices skips it.
func (d *serveDevice) retire() {
	d.retired = true
	d.s, d.ckpt = nil, nil
}

func (d *serveDevice) freeSlabs() int {
	n := 0
	for _, f := range d.slabFree {
		if f {
			n++
		}
	}
	return n
}

// allocSlab takes the lowest free slab index.
func (d *serveDevice) allocSlab(jobID int) (int, bool) {
	for i, f := range d.slabFree {
		if f {
			d.slabFree[i] = false
			d.slabOf[jobID] = i
			return i, true
		}
	}
	return 0, false
}

func (d *serveDevice) freeSlab(jobID int) {
	if i, ok := d.slabOf[jobID]; ok {
		d.slabFree[i] = true
		delete(d.slabOf, jobID)
	}
}

// server is the serving run's whole state.
type server struct {
	cfg     ServeConfig
	kind    preempt.Kind
	tenants int

	devices []*serveDevice
	admit   *admitter
	hyper   *hypervisor
	pool    *snapshot.Pool
	epoch   uint64 // last checkpoint epoch, migration and failover alike

	// built holds each kernel's one build of the run, at its
	// occupancy-filled grid; wlCache holds its rebinding to each slab,
	// the immutable part of an admission. See prepared() for why reuse
	// is sound.
	built   map[string]*kernels.Workload
	wlCache map[wlKey]*kernels.Workload

	trace   []Job // (arrival, ID) order
	nextArr int

	events  []ServeEvent
	digests []jobDigest // delivered jobs' slab digests (StateHash)

	// per-tenant accounting
	arrived     []int
	completed   []int
	preemptions []int64
	queueSum    []int64
	turnarounds [][]int64

	makespan int64
	duration int64
}

func (sv *server) log(cycle int64, what string, tenant, device int, detail string) {
	e := ServeEvent{Cycle: cycle, What: what, Tenant: tenant, Device: device, Detail: detail}
	if sv.cfg.DecisionSink != nil {
		// Streaming mode: render through the same formatter the
		// in-memory path uses and hand the line off; nothing accumulates.
		sv.cfg.DecisionSink.WriteLine(e.String())
		return
	}
	sv.events = append(sv.events, e)
}

// hookDevice wires a device's completion observer: copy the outcome
// host-side, verify while the slab is still intact, release the slab.
// With the state witness on, the slab is hashed and then cleared, so the
// next job on it starts from zeroed memory; the pages it covers whole
// give up their storage. Runs inside the device's
// window advance — it must touch only this device's state.
func (sv *server) hookDevice(dev *serveDevice) {
	verify := sv.cfg.Sched.Verify
	witness, slabBytes := sv.cfg.StateHash, sv.cfg.Sched.SlabBytes
	dev.s.onComplete = func(rj *runJob) {
		if verify && dev.verifyErr == nil {
			if err := rj.wl.Verify(dev.s.d); err != nil {
				dev.verifyErr = fmt.Errorf("job %d (%s, tenant %d) on device %d: output corrupt: %w",
					rj.job.ID, rj.job.Kernel, rj.job.Tenant, dev.id, err)
			}
		}
		if witness {
			lo := (slabBase + dev.slabOf[rj.job.ID]*slabBytes) / 4
			rj.digest = slabDigest(dev.s.d.Mem, lo, slabBytes/4)
			dev.s.d.Mem.Clear(lo, slabBytes/4)
		}
		dev.freeSlab(rj.job.ID)
		dev.incomplete[rj.job.Tenant]--
		dev.completedWin = append(dev.completedWin, rj)
	}
}

// addDevice registers s as a new idle device with an empty slab pool.
func (sv *server) addDevice(s *scheduler) *serveDevice {
	dev := &serveDevice{id: len(sv.devices), s: s,
		slabFree:   make([]bool, sv.cfg.SlabsPerDevice),
		slabOf:     make(map[int]int),
		incomplete: make([]int, sv.tenants),
		done:       true,
	}
	for i := range dev.slabFree {
		dev.slabFree[i] = true
	}
	sv.hookDevice(dev)
	sv.devices = append(sv.devices, dev)
	return dev
}

// newBareScheduler builds a scheduler with an empty admission list: the
// serving layer admits jobs one at a time as the front door releases
// them.
func newBareScheduler(cfg Config, kind preempt.Kind) (*scheduler, error) {
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	if cfg.SlabBytes <= 0 {
		return nil, errors.New("sched: bare scheduler needs explicit SlabBytes")
	}
	d, err := sim.NewDevice(cfg.Dev)
	if err != nil {
		return nil, err
	}
	s := &scheduler{cfg: cfg, d: d, mux: newMux(kind), kind: kind,
		progSeen: make(map[*isa.Program]bool)}
	d.AttachRuntime(s.mux)
	for i := 0; i < cfg.Dev.NumSMs; i++ {
		s.slots = append(s.slots, &smSlot{id: i, state: smIdle})
	}
	return s, nil
}

// admitPrepared inserts a job with an already-built workload at cycle
// at. A fresh technique instance replaces any previous registration for
// the program: slab exclusivity guarantees the previous same-program
// job has completed, and per-job techniques keep warp-keyed state (CKPT
// visit counts, saved contexts) from leaking across jobs whose warp ids
// collide.
func (s *scheduler) admitPrepared(j Job, wl *kernels.Workload, at int64) error {
	tech, err := preempt.New(s.kind, wl.Prog)
	if err != nil {
		return fmt.Errorf("sched: admitting job %d under %v: %w", j.ID, s.kind, err)
	}
	s.mux.add(wl.Prog, tech)
	rj := &runJob{job: j, wl: wl, sm: -1, admitAt: at}
	pos := s.nextArr
	for pos < len(s.jobs) &&
		(s.jobs[pos].admitAt < at || (s.jobs[pos].admitAt == at && s.jobs[pos].job.ID < j.ID)) {
		pos++
	}
	s.jobs = append(s.jobs, nil)
	copy(s.jobs[pos+1:], s.jobs[pos:])
	s.jobs[pos] = rj
	return nil
}

// wlKey identifies one immutable occupancy-filled workload: the kernel
// and the slab whose base address is baked into its launch closures.
type wlKey struct {
	abbrev string
	slab   int
}

// prepared returns the occupancy-filled workload for (kernel, slab),
// made once and reused across admissions. A kernel is built once per
// run, at its occupancy-filled grid, and each slab's workload rebinds
// that build's buffers to the slab (kernels.Workload.Rebase): it shares
// the instructions, host inputs and golden outputs, but has its own
// program value, because the mux keys techniques by program pointer and
// two jobs of one kernel may run on one device in different slabs.
// Reuse is sound because a Workload is immutable after construction:
// the program, host inputs and golden outputs are fixed, and
// Init/WarpSetup/Verify only read them while writing per-episode device
// state. Per-launch technique state (CTXBack flashback metadata, CKPT
// warp-keyed visit counts) lives in the technique, which admitPrepared
// still builds fresh per admission. Same-key reuse cannot overlap on one
// device — the slab allocator hands each (device, slab) to one job at a
// time — and sharing one program pointer across devices is already the
// norm under migration restore. Nothing outlives the run.
func (sv *server) prepared(abbrev string, slab int) (*kernels.Workload, error) {
	wk := wlKey{abbrev: abbrev, slab: slab}
	if wl, ok := sv.wlCache[wk]; ok {
		return wl, nil
	}
	built, ok := sv.built[abbrev]
	if !ok {
		p := sv.cfg.Sched.Params
		probe, err := kernels.ByAbbrev(abbrev, p)
		if err != nil {
			return nil, err
		}
		var dev *serveDevice
		for _, d := range sv.devices {
			if !d.retired {
				dev = d
				break
			}
		}
		occ, err := dev.s.d.ComputeOccupancy(probe.Prog, p.WarpsPerBlock)
		if err != nil {
			return nil, fmt.Errorf("sched: occupancy for %s: %w", abbrev, err)
		}
		p.NumBlocks = occ.BlocksPerSM
		if built, err = kernels.ByAbbrev(abbrev, p); err != nil {
			return nil, err
		}
		sv.built[abbrev] = built
	}
	wl := built.Rebase(slabBase + slab*sv.cfg.Sched.SlabBytes)
	sv.wlCache[wk] = wl
	return wl, nil
}

// route picks the admission destination: the least-loaded alive device
// with a free slab that is past any restore latency. Ties go to the
// lower device id. Returns nil when the fleet is at capacity.
func (sv *server) route(now int64) *serveDevice {
	var best *serveDevice
	for _, dev := range sv.devices {
		if dev.retired || dev.blockedUntil > now || dev.freeSlabs() == 0 {
			continue
		}
		if best == nil || dev.outstanding() < best.outstanding() {
			best = dev
		}
	}
	return best
}

// placeJob routes and admits one job at barrier now. The admission
// drain verified capacity, so a routing failure is an internal error.
func (sv *server) placeJob(j Job, now int64) error {
	dev := sv.route(now)
	if dev == nil {
		return fmt.Errorf("sched: admitted job %d with no routable device", j.ID)
	}
	slab, ok := dev.allocSlab(j.ID)
	if !ok {
		return fmt.Errorf("sched: device %d routed without a free slab", dev.id)
	}
	wl, err := sv.prepared(j.Kernel, slab)
	if err != nil {
		dev.freeSlab(j.ID)
		return err
	}
	if err := dev.s.admitPrepared(j, wl, now); err != nil {
		dev.freeSlab(j.ID)
		return err
	}
	dev.incomplete[j.Tenant]++
	dev.done = false
	return nil
}

// Serve runs the serving loop to completion and folds the SLO tables.
func Serve(cfg ServeConfig, kind preempt.Kind, jobs []Job) (*ServeResult, error) {
	sv, err := newServer(cfg, kind, jobs)
	if err != nil {
		return nil, err
	}
	if err := sv.run(); err != nil {
		return nil, err
	}
	return sv.result(), nil
}

func newServer(cfg ServeConfig, kind preempt.Kind, jobs []Job) (*server, error) {
	if len(jobs) == 0 {
		return nil, errors.New("sched: empty trace")
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 2
	}
	if cfg.CheckpointEvery < 0 {
		return nil, errors.New("sched: checkpoint cadence must be >= 0")
	}
	if cfg.Kill != nil {
		if err := cfg.Kill.validate(cfg.Devices); err != nil {
			return nil, err
		}
	}
	if cfg.AdmitEvery <= 0 {
		cfg.AdmitEvery = 2000
	}
	if cfg.SlabsPerDevice <= 0 {
		cfg.SlabsPerDevice = 8
	}
	if cfg.Sched.MaxCycles <= 0 {
		cfg.Sched.MaxCycles = 2_000_000_000
	}
	if cfg.Sched.SlabBytes <= 0 {
		cfg.Sched.SlabBytes = (cfg.Sched.Dev.GlobalMemBytes - slabBase) / cfg.SlabsPerDevice
		cfg.Sched.SlabBytes -= cfg.Sched.SlabBytes % 4096
	}
	if cfg.Sched.SlabBytes <= 0 {
		return nil, errors.New("sched: device memory too small for the slab pool")
	}
	if slabBase+cfg.SlabsPerDevice*cfg.Sched.SlabBytes > cfg.Sched.Dev.GlobalMemBytes {
		return nil, fmt.Errorf("sched: %d slabs of %d bytes exceed device memory (%d)",
			cfg.SlabsPerDevice, cfg.Sched.SlabBytes, cfg.Sched.Dev.GlobalMemBytes)
	}
	if cfg.ReportEvery <= 0 {
		if cfg.Hypervisor.Every > 0 {
			cfg.ReportEvery = cfg.Hypervisor.Every
		} else {
			cfg.ReportEvery = 16 * cfg.AdmitEvery
		}
	}

	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})
	tenants := 0
	for _, j := range ordered {
		if j.Tenant >= tenants {
			tenants = j.Tenant + 1
		}
	}

	sv := &server{cfg: cfg, kind: kind, tenants: tenants, trace: ordered,
		built:   make(map[string]*kernels.Workload),
		wlCache: make(map[wlKey]*kernels.Workload),
		admit:   newAdmitter(cfg.Admit, tenants),
	}
	if cfg.Hypervisor.enabled() {
		sv.hyper = newHypervisor(cfg.Hypervisor, tenants)
	}
	sv.arrived = make([]int, tenants)
	sv.completed = make([]int, tenants)
	sv.preemptions = make([]int64, tenants)
	sv.queueSum = make([]int64, tenants)
	sv.turnarounds = make([][]int64, tenants)

	for di := 0; di < cfg.Devices; di++ {
		s, err := newBareScheduler(cfg.Sched, kind)
		if err != nil {
			return nil, fmt.Errorf("sched: device %d: %w", di, err)
		}
		sv.addDevice(s)
	}

	if cfg.WarmPool > 0 {
		pool, err := snapshot.NewPool(cfg.Sched.Dev, 1, cfg.WarmPool)
		if err != nil {
			return nil, err
		}
		sv.pool = pool
	}
	return sv, nil
}

// advance drives every alive unfinished device to the barrier, up to
// Workers at a time. Devices share no mutable state during a window, so
// the only cross-device order dependence is the merge, which run()
// performs in device-id order.
func (sv *server) advance(T int64) error {
	type res struct {
		done bool
		err  error
	}
	var todo []*serveDevice
	for _, dev := range sv.devices {
		if !dev.retired && !dev.done {
			todo = append(todo, dev)
		}
	}
	results := make([]res, len(todo))
	workers := sv.cfg.Workers
	if workers <= 1 || len(todo) <= 1 {
		for i, dev := range todo {
			d, err := dev.s.runTo(T)
			results[i] = res{d, err}
		}
	} else {
		if workers > len(todo) {
			workers = len(todo)
		}
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					d, err := todo[i].s.runTo(T)
					results[i] = res{d, err}
				}
			}()
		}
		for i := range todo {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, dev := range todo {
		if results[i].err != nil {
			return fmt.Errorf("sched: device %d: %w", dev.id, results[i].err)
		}
		dev.done = results[i].done
	}
	return nil
}

// mergeCompletions folds every device's window completions into the
// tenant accounting, in device-id order.
func (sv *server) mergeCompletions() error {
	for _, dev := range sv.devices {
		if dev.retired {
			continue
		}
		if dev.verifyErr != nil {
			return fmt.Errorf("sched: %w", dev.verifyErr)
		}
		for _, rj := range dev.completedWin {
			if rj.delivered {
				// A replay of output a killed device already delivered.
				continue
			}
			t := rj.job.Tenant
			sv.completed[t]++
			sv.preemptions[t] += int64(rj.preemptions)
			sv.queueSum[t] += rj.start - rj.job.Arrival
			sv.turnarounds[t] = append(sv.turnarounds[t], rj.complete-rj.job.Arrival)
			if rj.complete > sv.makespan {
				sv.makespan = rj.complete
			}
			if sv.cfg.StateHash {
				sv.digests = append(sv.digests, jobDigest{rj.job, rj.digest})
			}
		}
		// Retire the finished launches from the device so its state —
		// and with it any migration checkpoint — stays bounded by the
		// outstanding window, not the lifetime job count. Without this a
		// late migration's restore transfer grows linearly with every
		// job ever served.
		for _, rj := range dev.completedWin {
			if rj.launch == nil {
				continue
			}
			if err := dev.s.d.RemoveLaunch(rj.launch); err != nil {
				return fmt.Errorf("sched: pruning job %d: %w", rj.job.ID, err)
			}
			rj.launch = nil
		}
		dev.completedWin = dev.completedWin[:0]
	}
	return nil
}

// run is the barrier loop.
func (sv *server) run() error {
	var (
		T          int64
		nextReport = sv.cfg.ReportEvery
		nextHyper  = int64(math.MaxInt64)
		nextCkpt   = int64(math.MaxInt64)
		killAt     = int64(math.MaxInt64)
		lastProg   = -1
		stall      int
	)
	if sv.hyper != nil {
		nextHyper = sv.cfg.Hypervisor.Every
	}
	if sv.cfg.CheckpointEvery > 0 {
		nextCkpt = sv.cfg.CheckpointEvery
	}
	if sv.cfg.Kill != nil {
		killAt = sv.cfg.Kill.Cycle
	}
	for {
		T += sv.cfg.AdmitEvery

		if err := sv.advance(T); err != nil {
			return err
		}
		if err := sv.mergeCompletions(); err != nil {
			return err
		}

		// Failover events, checkpoint first: a kill on a checkpoint
		// boundary restores the image taken at that very barrier.
		if T >= nextCkpt {
			if err := sv.checkpointAll(T); err != nil {
				return err
			}
			for nextCkpt <= T {
				nextCkpt += sv.cfg.CheckpointEvery
			}
		}
		if T >= killAt {
			killAt = math.MaxInt64
			if err := sv.kill(T); err != nil {
				return err
			}
		}

		// Pull arrivals up to the barrier into the front door.
		for sv.nextArr < len(sv.trace) && sv.trace[sv.nextArr].Arrival <= T {
			j := sv.trace[sv.nextArr]
			sv.nextArr++
			sv.arrived[j.Tenant]++
			sv.admit.enqueue(j)
		}

		// Admission + routing, in global arrival order.
		if err := sv.admit.drain(T,
			func() bool { return sv.route(T) != nil },
			func(j Job) error { return sv.placeJob(j, T) },
		); err != nil {
			return err
		}

		// Hypervisor pass: rebalance first so fresh quotas land on the
		// post-migration fleet.
		if T >= nextHyper {
			if err := sv.hyper.maybeMigrate(sv, T); err != nil {
				return err
			}
			sv.hyper.rearbitrate(sv, T)
			for nextHyper <= T {
				nextHyper += sv.cfg.Hypervisor.Every
			}
		}

		if T >= nextReport {
			admitted, shed := sv.admit.flushWindow()
			for t, n := range shed {
				if n > 0 {
					sv.log(T, "shed", t, -1,
						fmt.Sprintf("n=%d queue=%d", n, sv.admit.tenantBacklog(t)))
				}
			}
			done := 0
			for _, c := range sv.completed {
				done += c
			}
			sv.log(T, "window", -1, -1,
				fmt.Sprintf("admitted=%d backlog=%d done=%d", admitted, sv.admit.backlog(), done))
			for nextReport <= T {
				nextReport += sv.cfg.ReportEvery
			}
		}

		// Termination: trace drained, nothing deferred, every device idle.
		if sv.nextArr == len(sv.trace) && sv.admit.backlog() == 0 {
			alldone := true
			for _, dev := range sv.devices {
				if !dev.retired && !dev.done {
					alldone = false
					break
				}
			}
			if alldone {
				sv.finalReport(T)
				return nil
			}
		}

		// Watchdog: the loop must make progress — completions, arrivals
		// or admissions — or something is quota-wedged beyond what the
		// hypervisor can fix.
		prog := sv.nextArr
		for _, c := range sv.completed {
			prog += c
		}
		for _, a := range sv.admit.admitted {
			prog += a
		}
		for _, s := range sv.admit.shed {
			prog += s
		}
		if prog == lastProg {
			// A device still inside its restore latency is a scheduled
			// future event, not a stall: fast-forward the barrier clock to
			// the unblock and keep going.
			if next := sv.nextUnblock(T); next > T {
				if sv.nextArr < len(sv.trace) && sv.trace[sv.nextArr].Arrival < next {
					next = sv.trace[sv.nextArr].Arrival
				}
				if next-sv.cfg.AdmitEvery > T {
					T = next - sv.cfg.AdmitEvery
				}
				stall = 0
				continue
			}
			stall++
			if stall > 10_000 {
				var b strings.Builder
				for _, dev := range sv.devices {
					if dev.retired {
						continue
					}
					fmt.Fprintf(&b, " dev%d{done=%v out=%d slabs=%d blocked=%d clock=%d}",
						dev.id, dev.done, dev.outstanding(), dev.freeSlabs(),
						dev.blockedUntil, dev.s.d.Now())
				}
				return fmt.Errorf("sched: serve made no progress for %d windows at cycle %d: backlog=%d%s",
					stall, T, sv.admit.backlog(), b.String())
			}
		} else {
			stall = 0
			lastProg = prog
		}
		if T > sv.cfg.Sched.MaxCycles {
			return fmt.Errorf("sched: serve exceeded MaxCycles (%d) with %d jobs outstanding",
				sv.cfg.Sched.MaxCycles, sv.admit.backlog())
		}
	}
}

// nextUnblock returns the earliest future cycle at which a
// restore-blocked alive device becomes routable, or 0 when none is
// blocked past now.
func (sv *server) nextUnblock(now int64) int64 {
	var next int64
	for _, dev := range sv.devices {
		if dev.retired || dev.blockedUntil <= now {
			continue
		}
		if next == 0 || dev.blockedUntil < next {
			next = dev.blockedUntil
		}
	}
	return next
}

// finalReport emits the closing window aggregate so the log always ends
// at the final barrier.
func (sv *server) finalReport(T int64) {
	admitted, shed := sv.admit.flushWindow()
	for t, n := range shed {
		if n > 0 {
			sv.log(T, "shed", t, -1, fmt.Sprintf("n=%d queue=%d", n, sv.admit.tenantBacklog(t)))
		}
	}
	done := 0
	for _, c := range sv.completed {
		done += c
	}
	sv.log(T, "window", -1, -1,
		fmt.Sprintf("admitted=%d backlog=%d done=%d final", admitted, sv.admit.backlog(), done))
	sv.duration = T
}

// jain computes the Jain fairness index (sum x)^2 / (n * sum x^2) over
// the non-degenerate entries; 1.0 for an empty or all-zero vector.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func (sv *server) result() *ServeResult {
	r := &ServeResult{Kind: sv.kind, Duration: sv.duration, Makespan: sv.makespan,
		Events: sv.events}
	var all []int64
	px := make([]float64, sv.tenants)
	tx := make([]float64, sv.tenants)
	for t := 0; t < sv.tenants; t++ {
		turns := append([]int64(nil), sv.turnarounds[t]...)
		sort.Slice(turns, func(i, j int) bool { return turns[i] < turns[j] })
		all = append(all, turns...)
		slo := TenantSLO{Tenant: t,
			Arrived:     sv.arrived[t],
			Admitted:    sv.admit.admitted[t],
			Shed:        sv.admit.shed[t],
			Completed:   sv.completed[t],
			Preemptions: sv.preemptions[t],
		}
		if slo.Arrived > 0 {
			slo.ShedPerMille = int64(slo.Shed) * 1000 / int64(slo.Arrived)
		}
		if slo.Completed > 0 {
			slo.MeanQueueCycles = divRound(sv.queueSum[t], int64(slo.Completed))
			slo.P50 = percentile(turns, 0.50)
			slo.P95 = percentile(turns, 0.95)
			slo.P99 = percentile(turns, 0.99)
			px[t] = float64(slo.Preemptions) / float64(slo.Completed)
		}
		tx[t] = float64(slo.Completed)
		r.Arrived += slo.Arrived
		r.Admitted += slo.Admitted
		r.Shed += slo.Shed
		r.Completed += slo.Completed
		r.TotalPreemptions += slo.Preemptions
		r.Tenants = append(r.Tenants, slo)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.P50, r.P95, r.P99 = percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99)
	r.PreemptionJain = jain(px)
	r.ThroughputJain = jain(tx)
	if sv.hyper != nil {
		r.Rearbitrations = sv.hyper.rearbs
		r.Migrations = sv.hyper.migrations
		r.StarveBoosts = sv.hyper.starveBoosts
	}
	if sv.cfg.StateHash {
		r.StateHash = sv.stateHash()
	}
	sv.exportMetrics(r)
	return r
}

// exportMetrics publishes serve counters and latency histograms.
func (sv *server) exportMetrics(r *ServeResult) {
	m := sv.cfg.Sched.Metrics
	if m == nil {
		return
	}
	m.Counter("serve.arrived").Add(int64(r.Arrived))
	m.Counter("serve.admitted").Add(int64(r.Admitted))
	m.Counter("serve.shed").Add(int64(r.Shed))
	m.Counter("serve.completed").Add(int64(r.Completed))
	m.Counter("serve.preemptions").Add(r.TotalPreemptions)
	m.Counter("serve.migrations").Add(int64(r.Migrations))
	m.Counter("serve.rearbitrations").Add(int64(r.Rearbitrations))
	h := m.Histogram("serve.turnaround_cycles", trace.DefaultCycleBuckets)
	for t := range sv.turnarounds {
		for _, v := range sv.turnarounds[t] {
			h.Observe(v)
		}
	}
}

// Render formats the serving report: fleet headline, hypervisor
// counters, the per-tenant SLO table and the fairness indices.
func (r *ServeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s serve: duration=%d makespan=%d arrived=%d admitted=%d shed=%d completed=%d preemptions=%d\n",
		r.Kind, r.Duration, r.Makespan, r.Arrived, r.Admitted, r.Shed, r.Completed, r.TotalPreemptions)
	fmt.Fprintf(&b, "  turnaround p50/p95/p99 = %d/%d/%d cycles\n", r.P50, r.P95, r.P99)
	fmt.Fprintf(&b, "  hypervisor: rearbitrations=%d migrations=%d starve-boosts=%d\n",
		r.Rearbitrations, r.Migrations, r.StarveBoosts)
	fmt.Fprintf(&b, "  %-8s %7s %7s %6s %6s %7s %9s %11s %11s %11s %11s\n",
		"tenant", "arrive", "admit", "shed", "shed‰", "done", "preempts", "mean-queue", "p50-turn", "p95-turn", "p99-turn")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-8d %7d %7d %6d %6d %7d %9d %11d %11d %11d %11d\n",
			t.Tenant, t.Arrived, t.Admitted, t.Shed, t.ShedPerMille, t.Completed,
			t.Preemptions, t.MeanQueueCycles, t.P50, t.P95, t.P99)
	}
	fmt.Fprintf(&b, "  fairness: preemption-jain=%.4f throughput-jain=%.4f\n",
		r.PreemptionJain, r.ThroughputJain)
	return b.String()
}

// EventLog renders the serving decision log, one event per line.
func (r *ServeResult) EventLog() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
