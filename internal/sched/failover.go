package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
)

// Failover: periodic whole-device checkpoints and an injected device kill
// are events at the serve loop's barriers (server.run). At a checkpoint
// barrier every alive device with outstanding jobs is exported whole
// (internal/snapshot) together with its job table. A kill retires its
// device the way a migration retires its donor, through the same
// checkpoint/restoreFrom/Validate path:
//
//   - under a relocatable technique with a checkpoint, the dead device's
//     latest checkpoint restores onto a replacement shell — warm from the
//     pool when one is ready, cold otherwise — whose table holds the jobs
//     the image carries, and the replacement replays the dead device's
//     schedule from the checkpoint cycle;
//   - under CKPT, SM-flushing and Chimera (per-warp state lives outside
//     the device image), or before the first checkpoint, the replacement
//     is a fresh device;
//   - every job of the dead device that the replacement does not carry
//     and that was not yet delivered re-enters admission. Its token is
//     already paid.
//
// The dead device then drops its state (serveDevice.retire).
//
// Delivered once: a job's outcome counts at the barrier that merges its
// first completion. A carried job that completed on the dead device after
// the checkpoint replays on the replacement, so the restored schedule
// stays cycle-exact, but its second completion is ignored.
//
// State witness (ServeConfig.StateHash): each delivered job's memory slab
// is hashed at completion and cleared when freed, so every job starts
// from zeroed memory and its digest depends on the job alone — not on
// the device, the slab or the schedule. A killed run's witness is
// byte-identical to the undisturbed run's.

// DeviceKill injects one device failure into a serve run.
type DeviceKill struct {
	// Device is the id of one of the initial devices.
	Device int
	// Cycle is when the device dies: the first barrier at or after it. A
	// kill scheduled after the run has drained never fires.
	Cycle int64
}

func (k *DeviceKill) validate(devices int) error {
	if k.Device < 0 || k.Device >= devices {
		return fmt.Errorf("sched: kill device %d out of range (fleet has %d)", k.Device, devices)
	}
	if k.Cycle <= 0 {
		return errors.New("sched: kill cycle must be positive")
	}
	return nil
}

// slabDigest hashes the n words of mem from word at as little-endian
// bytes with the containers' checksum (64-bit FNV-1a); a page with no
// storage of its own folds in as zeros without being read.
func slabDigest(mem *sim.Memory, at, n int) uint64 {
	h := artifact.NewChecksum()
	mem.Runs(at, n, func(_ int, run []uint32, owned bool) {
		if owned {
			h = h.Words(run)
		} else {
			h = h.Zeros(4 * len(run))
		}
	})
	return uint64(h)
}

// jobDigest is one delivered job's state-witness entry.
type jobDigest struct {
	job    Job
	digest uint64
}

// stateHash renders the witness: one line per delivered job with its
// slab digest, in (arrival, ID) order.
func (sv *server) stateHash() string {
	sort.Slice(sv.digests, func(i, j int) bool { return arrivalLess(sv.digests[i].job, sv.digests[j].job) })
	var b strings.Builder
	for _, d := range sv.digests {
		fmt.Fprintf(&b, "job %3d %-6s slab %016x\n", d.job.ID, d.job.Kernel, d.digest)
	}
	return b.String()
}

// ckpt is one device's checkpoint: the encoded snapshot and the
// scheduler metadata needed to resume the schedule from it. Its jobs are
// the table's, all outstanding; each carries its slab and tenant, so the
// host side needs no other copy.
type ckpt struct {
	epoch uint64
	cycle int64
	enc   []byte
	progs []*isa.Program // first-launch order = DeviceState.Progs order
	jobs  []*runJob      // the scheduler's jobs, parallel to meta.jobs
	meta  schedMeta
}

type schedMeta struct {
	jobs  []jobMeta // parallel to scheduler.jobs
	slots []slotMeta
}

type jobMeta struct {
	started     bool
	start       int64
	preemptions int
	sm          int
	launchIdx   int // index into the export's Launches, -1 none
	episodeIdx  int // index into the export's Episodes, -1 none
}

type slotMeta struct {
	state       smState
	cur, victim int // indices into scheduler.jobs, -1 none
	parked      []int
}

// carried reports whether the image holds job i's launch: those jobs
// resume on a restore, every other job must run again.
func (c *ckpt) carried(i int) bool { return c.meta.jobs[i].launchIdx >= 0 }

// checkpoint exports the device and records where every job's launch
// and episode landed in the export, so a restore can re-link them.
func (s *scheduler) checkpoint(epoch uint64) (*ckpt, error) {
	st, idx := s.d.ExportState()
	enc := snapshot.Encode(&snapshot.Snapshot{Epoch: epoch, State: st})
	lidx := make(map[*sim.Launch]int, len(idx.Launches))
	for i, l := range idx.Launches {
		lidx[l] = i
	}
	eidx := make(map[*sim.Episode]int, len(idx.Episodes))
	for i, e := range idx.Episodes {
		eidx[e] = i
	}
	// The program list must mirror the export's first-seen-in-launch
	// order exactly: ImportState resolves embedded programs positionally.
	// Deriving it from the export also keeps it correct when completed
	// launches have been pruned from the device.
	var progs []*isa.Program
	seenProg := make(map[*isa.Program]bool)
	for _, l := range idx.Launches {
		if !seenProg[l.Spec.Prog] {
			seenProg[l.Spec.Prog] = true
			progs = append(progs, l.Spec.Prog)
		}
	}
	c := &ckpt{epoch: epoch, cycle: s.d.Now(), enc: enc, progs: progs,
		jobs: append([]*runJob(nil), s.jobs...)}
	jobPos := make(map[*runJob]int, len(s.jobs))
	for i, j := range s.jobs {
		jobPos[j] = i
		jm := jobMeta{started: j.started, start: j.start,
			preemptions: j.preemptions, sm: j.sm, launchIdx: -1, episodeIdx: -1}
		if j.launch != nil {
			li, ok := lidx[j.launch]
			if !ok {
				return nil, fmt.Errorf("sched: job %d launch missing from device export", j.job.ID)
			}
			jm.launchIdx = li
		}
		if j.episode != nil {
			ei, ok := eidx[j.episode]
			if !ok {
				return nil, fmt.Errorf("sched: job %d episode missing from device export", j.job.ID)
			}
			jm.episodeIdx = ei
		}
		c.meta.jobs = append(c.meta.jobs, jm)
	}
	for _, sl := range s.slots {
		sm := slotMeta{state: sl.state, cur: -1, victim: -1}
		if sl.cur != nil {
			sm.cur = jobPos[sl.cur]
		}
		if sl.victim != nil {
			sm.victim = jobPos[sl.victim]
		}
		for _, p := range sl.parked {
			sm.parked = append(sm.parked, jobPos[p])
		}
		c.meta.slots = append(c.meta.slots, sm)
	}
	return c, nil
}

// restoreFrom revives the checkpoint as a replacement scheduler: fresh
// technique instances drive the restored device (only relocatable kinds
// may take this path), and the schedule resumes with a table of the jobs
// the checkpoint carries, each in the slab it held. A carried job that
// has completed since the checkpoint is marked delivered. The restore
// goes through the speculative path against the same authoritative
// image, so Validate is a cheap post-replay certainty check the caller
// runs before trusting the replacement.
func restoreFrom(c *ckpt, cfg Config, kind preempt.Kind,
	pool *snapshot.Pool) (*scheduler, *snapshot.Restored, error) {
	mux := newMux(kind)
	for _, p := range c.progs {
		t, err := preempt.New(kind, p)
		if err != nil {
			return nil, nil, fmt.Errorf("sched: rebuilding %v for restore: %w", kind, err)
		}
		mux.add(p, t)
	}
	res, err := snapshot.Restore(pool, c.enc, c.enc, c.epoch, mux, c.progs...)
	if err != nil {
		return nil, nil, err
	}
	s := &scheduler{cfg: cfg, d: res.Device, mux: mux, kind: kind}
	kept := make(map[int]*runJob, len(c.jobs))
	for i, jm := range c.meta.jobs {
		if !c.carried(i) {
			// Unlaunched: the caller re-admits it.
			continue
		}
		o := c.jobs[i]
		rj := &runJob{job: o.job, wl: o.wl, admitAt: o.admitAt, sm: jm.sm, slab: o.slab,
			started: jm.started, start: jm.start, preemptions: jm.preemptions,
			launch:    res.Index.Launches[jm.launchIdx],
			delivered: o.delivered || o.complete != 0}
		if jm.episodeIdx >= 0 {
			rj.episode = res.Index.Episodes[jm.episodeIdx]
		}
		kept[i] = rj
		s.jobs = append(s.jobs, rj)
	}
	s.nextArr = len(s.jobs)
	for i, sm := range c.meta.slots {
		sl := &smSlot{id: i, state: sm.state}
		link := func(pos int) (*runJob, error) {
			rj := kept[pos]
			if rj == nil {
				return nil, fmt.Errorf("sched: slot %d references job without checkpoint launch", i)
			}
			return rj, nil
		}
		if sm.cur >= 0 {
			if sl.cur, err = link(sm.cur); err != nil {
				return nil, nil, err
			}
		}
		if sm.victim >= 0 {
			if sl.victim, err = link(sm.victim); err != nil {
				return nil, nil, err
			}
		}
		for _, pi := range sm.parked {
			p, err := link(pi)
			if err != nil {
				return nil, nil, err
			}
			sl.parked = append(sl.parked, p)
		}
		s.slots = append(s.slots, sl)
	}
	return s, res, nil
}

// restoreDevice brings checkpoint c up as a new device id: the restore
// is validated, the new table holds only the jobs the image carries (the
// slabs of the rest are free), and routing skips the new device until
// the modeled restore latency has elapsed. Migration and kill recovery
// share it.
func (sv *server) restoreDevice(c *ckpt, quota map[int]int, now int64) (*serveDevice, snapshot.Outcome, error) {
	rs, res, err := restoreFrom(c, sv.cfg.Sched, sv.kind, sv.pool)
	if err != nil {
		return nil, snapshot.Outcome{}, err
	}
	// Settle the speculative restore's deferred validation now: the
	// image is authoritative, so this must pass — a failure is an
	// infrastructure error, never silent.
	if err := res.Validate(); err != nil {
		return nil, snapshot.Outcome{}, fmt.Errorf("restored device failed validation: %w", err)
	}
	rs.quota = quota
	nd := &serveDevice{id: len(sv.devices), s: rs, blockedUntil: now + res.Outcome.RestoreCycles()}
	sv.hookDevice(nd)
	sv.devices = append(sv.devices, nd)
	if m := sv.cfg.Sched.Metrics; m != nil {
		m.Counter("snap.restore_" + warmth(res.Outcome)).Add(1)
	}
	if sv.pool != nil {
		// Top the warm pool back up so the next restore can also land on
		// a prepared shell; a refill failure only means a cold shell
		// later, not a lost move.
		_ = sv.pool.Refill(1)
	}
	return nd, res.Outcome, nil
}

func warmth(o snapshot.Outcome) string {
	if o.Warm {
		return "warm"
	}
	return "cold"
}

// requeueLost sends every job of the retired device old that checkpoint
// c does not carry (nil: none) and that was not yet delivered back into
// admission, token-paid, and returns how many went back.
func (sv *server) requeueLost(old *serveDevice, c *ckpt) int {
	carried := make(map[*runJob]bool)
	if c != nil {
		for i := range c.meta.jobs {
			if c.carried(i) {
				carried[c.jobs[i]] = true
			}
		}
	}
	n := 0
	for _, rj := range old.s.jobs {
		if rj.delivered || carried[rj] {
			continue
		}
		sv.admit.requeue(rj.job)
		n++
	}
	return n
}

// checkpointAll takes the periodic whole-device checkpoint of every alive
// device. An idle device drops its previous checkpoint instead: a
// replacement would have nothing to carry.
func (sv *server) checkpointAll(now int64) error {
	sv.epoch++
	for _, dev := range sv.devices {
		if dev.retired {
			continue
		}
		if dev.outstanding() == 0 {
			dev.ckpt = nil
			continue
		}
		c, err := dev.s.checkpoint(sv.epoch)
		if err != nil {
			return fmt.Errorf("sched: checkpoint of device %d: %w", dev.id, err)
		}
		dev.ckpt = c
		sv.log(now, "checkpoint", -1, dev.id, fmt.Sprintf("epoch %d, %d bytes", sv.epoch, len(c.enc)))
		if m := sv.cfg.Sched.Metrics; m != nil {
			m.Counter("snap.checkpoints").Add(1)
			m.Counter("snap.checkpoint_bytes").Add(int64(len(c.enc)))
		}
	}
	return nil
}

// kill destroys the configured device at barrier now and brings up its
// replacement under the rules at the top of this file.
func (sv *server) kill(now int64) error {
	dead := sv.devices[sv.cfg.Kill.Device]
	if dead.retired {
		sv.log(now, "kill", -1, dead.id, "already retired by a migration: nothing lost")
		return nil
	}
	sv.log(now, "kill", -1, dead.id, fmt.Sprintf("device state lost, %d jobs outstanding", dead.outstanding()))

	c := dead.ckpt
	if c == nil || !preempt.Relocatable(sv.kind) {
		s, err := newBareScheduler(sv.cfg.Sched, sv.kind)
		if err != nil {
			return fmt.Errorf("sched: replacing device %d: %w", dead.id, err)
		}
		s.quota = dead.s.quota
		nd := sv.addDevice(s)
		why := "no checkpoint yet"
		if c != nil {
			why = fmt.Sprintf("%v is not relocatable", sv.kind)
		}
		sv.log(now, "replace", -1, nd.id, fmt.Sprintf("from dev%d: requeue=%d (%s)",
			dead.id, sv.requeueLost(dead, nil), why))
		dead.retire()
		return nil
	}
	nd, out, err := sv.restoreDevice(c, dead.s.quota, now)
	if err != nil {
		return fmt.Errorf("sched: restoring device %d checkpoint: %w", dead.id, err)
	}
	sv.log(now, "restore-"+warmth(out), -1, nd.id,
		fmt.Sprintf("from dev%d epoch %d@%d: carry=%d requeue=%d setup=%d transfer=%d",
			dead.id, c.epoch, c.cycle, len(nd.s.jobs), sv.requeueLost(dead, c),
			out.SetupCycles, out.TransferCycles))
	dead.retire()
	return nil
}
