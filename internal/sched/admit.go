package sched

// Admission control for serve mode: a per-tenant token bucket in front
// of a bounded defer queue. Every decision — shed, defer, admit — is a
// pure function of the global barrier clock and the merged fleet state,
// so the admission log is byte-identical at every worker and shard
// count.

// AdmitConfig configures the serving front door.
type AdmitConfig struct {
	// TokensPer100k is each tenant's sustained admission budget in jobs
	// per 100_000 cycles. 0 disables admission control: every arrival is
	// admitted as fleet capacity allows and nothing is shed.
	TokensPer100k int
	// Burst is the token bucket capacity in jobs; a tenant idle long
	// enough may admit this many back to back. 0 defaults to
	// max(1, TokensPer100k).
	Burst int
	// MaxQueue bounds each tenant's defer queue; an arrival finding the
	// queue full is shed. 0 defaults to 32.
	MaxQueue int
}

func (a *AdmitConfig) enabled() bool { return a.TokensPer100k > 0 }

func (a *AdmitConfig) defaults() {
	if a.Burst <= 0 {
		a.Burst = a.TokensPer100k
		if a.Burst < 1 {
			a.Burst = 1
		}
	}
	if a.MaxQueue <= 0 {
		a.MaxQueue = 32
	}
}

// tokenScale is the integer sub-token unit: a bucket holds
// tokens*tokenScale and accrues elapsedCycles*rate per refill, so any
// window cadence refills exactly without float drift.
const tokenScale = 100_000

type tokenBucket struct {
	level int64 // sub-token units
	last  int64 // cycle of the last refill
}

func (b *tokenBucket) refill(now int64, cfg AdmitConfig) {
	b.level += (now - b.last) * int64(cfg.TokensPer100k)
	if lim := int64(cfg.Burst) * tokenScale; b.level > lim {
		b.level = lim
	}
	b.last = now
}

func (b *tokenBucket) take() bool {
	if b.level < tokenScale {
		return false
	}
	b.level -= tokenScale
	return true
}

// pendJob is one deferred arrival. paid marks a job whose admission
// token was already spent (a migration or failover re-queue must not
// pay twice).
type pendJob struct {
	job  Job
	paid bool
}

// admitter is the serving front door's state: one bucket and one
// bounded FIFO per tenant, plus per-window aggregates for the decision
// log.
type admitter struct {
	cfg     AdmitConfig
	queues  [][]pendJob
	buckets []tokenBucket

	// window aggregates, flushed into the decision log at report
	// boundaries.
	winAdmitted int
	winShed     []int

	// totals for the SLO table.
	admitted []int
	shed     []int
}

func newAdmitter(cfg AdmitConfig, tenants int) *admitter {
	cfg.defaults()
	a := &admitter{cfg: cfg,
		queues:   make([][]pendJob, tenants),
		buckets:  make([]tokenBucket, tenants),
		winShed:  make([]int, tenants),
		admitted: make([]int, tenants),
		shed:     make([]int, tenants),
	}
	for t := range a.buckets {
		a.buckets[t].level = int64(cfg.Burst) * tokenScale
	}
	return a
}

// enqueue accepts one arrival into its tenant's defer queue, shedding
// it when admission control is on and the queue is full. Returns true
// if the job was kept.
func (a *admitter) enqueue(j Job) bool {
	t := j.Tenant
	if a.cfg.enabled() && len(a.queues[t]) >= a.cfg.MaxQueue {
		a.shed[t]++
		a.winShed[t]++
		return false
	}
	a.queues[t] = append(a.queues[t], pendJob{job: j})
	return true
}

// requeue re-inserts a job that a migration or a device kill sent back
// at its (arrival, ID) position, so the drain order stays the global
// arrival order. The job's token is already paid and a full queue cannot
// shed it — it was admitted once.
func (a *admitter) requeue(j Job) {
	t := j.Tenant
	q := a.queues[t]
	pos := 0
	for pos < len(q) &&
		(q[pos].job.Arrival < j.Arrival || (q[pos].job.Arrival == j.Arrival && q[pos].job.ID < j.ID)) {
		pos++
	}
	q = append(q, pendJob{})
	copy(q[pos+1:], q[pos:])
	q[pos] = pendJob{job: j, paid: true}
	a.queues[t] = q
}

// backlog is the total deferred job count.
func (a *admitter) backlog() int {
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// tenantBacklog is one tenant's deferred job count.
func (a *admitter) tenantBacklog(t int) int { return len(a.queues[t]) }

// drain admits deferred jobs in global (arrival, ID) order until tokens
// or fleet capacity run out. route must return a destination with a
// free slab or nil; admit must place the job and cannot refuse. Called
// only at barriers, single-threaded.
func (a *admitter) drain(now int64, route func() bool, admit func(Job) error) error {
	if a.cfg.enabled() {
		for t := range a.buckets {
			a.buckets[t].refill(now, a.cfg)
		}
	}
	blocked := make([]bool, len(a.queues))
	for {
		best := -1
		for t, q := range a.queues {
			if len(q) == 0 || blocked[t] {
				continue
			}
			if best < 0 ||
				q[0].job.Arrival < a.queues[best][0].job.Arrival ||
				(q[0].job.Arrival == a.queues[best][0].job.Arrival && q[0].job.ID < a.queues[best][0].job.ID) {
				best = t
			}
		}
		if best < 0 {
			return nil
		}
		if !route() {
			// No device has a free slab: fleet capacity, not policy,
			// stops admission this window.
			return nil
		}
		head := a.queues[best][0]
		if a.cfg.enabled() && !head.paid && !a.buckets[best].take() {
			blocked[best] = true
			continue
		}
		a.queues[best] = a.queues[best][1:]
		if err := admit(head.job); err != nil {
			return err
		}
		// Re-queues (paid) were counted at first admission;
		// counting them again would break admitted+shed == arrived.
		if !head.paid {
			a.admitted[best]++
			a.winAdmitted++
		}
	}
}

// flushWindow drains the per-window aggregates, returning the admitted
// count and per-tenant shed counts since the last flush.
func (a *admitter) flushWindow() (admitted int, shed []int) {
	admitted = a.winAdmitted
	a.winAdmitted = 0
	shed = append([]int(nil), a.winShed...)
	for t := range a.winShed {
		a.winShed[t] = 0
	}
	return admitted, shed
}
