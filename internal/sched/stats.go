package sched

import (
	"fmt"
	"sort"
	"strings"

	"ctxback/internal/preempt"
	"ctxback/internal/trace"
)

// JobStats is one job's measured schedule outcome.
type JobStats struct {
	Job
	Start    int64 // first placement cycle
	Complete int64
	// Preemptions counts how many times the job was swapped out.
	Preemptions int
}

// QueueCycles is the time from arrival until the job first ran.
func (j JobStats) QueueCycles() int64 { return j.Start - j.Arrival }

// TurnaroundCycles is the time from arrival until completion.
func (j JobStats) TurnaroundCycles() int64 { return j.Complete - j.Arrival }

// TenantStats aggregates one tenant's jobs.
type TenantStats struct {
	Tenant      int
	Jobs        int
	Preemptions int64
	// MeanQueueCycles is the average queueing delay (round-half-up).
	MeanQueueCycles int64
	// P50/P95/P99 are exact nearest-rank turnaround percentiles over the
	// tenant's jobs.
	P50, P95, P99 int64
}

// Result is the outcome of one scheduled run.
type Result struct {
	Kind preempt.Kind
	Jobs []JobStats // arrival order
	// Tenants is indexed densely by the tenant ids present, ascending.
	Tenants []TenantStats
	// Makespan is the cycle the last job completed.
	Makespan         int64
	TotalPreemptions int64
	// P50/P95/P99 are overall turnaround percentiles.
	P50, P95, P99 int64
	// Events is the deterministic decision log.
	Events []Event
}

// percentile returns the exact nearest-rank q-percentile of sorted
// samples (q in [0,1]). The rank comes from trace.NearestRank, which
// computes ceil(q*n) exactly; the float ceiling used before drifted one
// rank high at the (q, n) pairs where q*n is an integer but the float
// product rounds above it — 0.99 at n=100 reported the maximum instead
// of the 99th rank, inflating every affected tail percentile.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[trace.NearestRank(int64(len(sorted)), q)-1]
}

func divRound(sum, n int64) int64 { return (sum + n/2) / n }

// result folds the scheduler's per-job state into a Result and exports
// it to the configured metrics registry.
func (s *scheduler) result() (*Result, error) {
	res := &Result{Kind: s.kind, Events: s.events}
	var all []int64
	for _, j := range s.jobs {
		st := JobStats{Job: j.job, Start: j.start, Complete: j.complete, Preemptions: j.preemptions}
		res.Jobs = append(res.Jobs, st)
		res.TotalPreemptions += int64(j.preemptions)
		if j.complete > res.Makespan {
			res.Makespan = j.complete
		}
		all = append(all, st.TurnaroundCycles())
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50, res.P95, res.P99 = percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99)
	res.Tenants = tenantStats(res.Jobs)
	s.export(res)
	return res, nil
}

// tenantStats aggregates per-tenant statistics over a run's jobs,
// indexed densely by the tenant ids present, ascending.
func tenantStats(jobs []JobStats) []TenantStats {
	byTenant := map[int][]JobStats{}
	for _, j := range jobs {
		byTenant[j.Tenant] = append(byTenant[j.Tenant], j)
	}
	tenants := make([]int, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Ints(tenants)
	out := make([]TenantStats, 0, len(tenants))
	for _, t := range tenants {
		js := byTenant[t]
		ts := TenantStats{Tenant: t, Jobs: len(js)}
		var queueSum int64
		turns := make([]int64, 0, len(js))
		for _, j := range js {
			ts.Preemptions += int64(j.Preemptions)
			queueSum += j.QueueCycles()
			turns = append(turns, j.TurnaroundCycles())
		}
		ts.MeanQueueCycles = divRound(queueSum, int64(len(js)))
		sort.Slice(turns, func(i, j int) bool { return turns[i] < turns[j] })
		ts.P50, ts.P95, ts.P99 = percentile(turns, 0.50), percentile(turns, 0.95), percentile(turns, 0.99)
		out = append(out, ts)
	}
	return out
}

// export publishes the run's statistics into the metrics registry.
// Counter and histogram names carry the tenant id, not the technique:
// one registry per run keeps techniques comparable side by side.
func (s *scheduler) export(res *Result) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("sched.jobs").Add(int64(len(res.Jobs)))
	m.Counter("sched.preemptions").Add(res.TotalPreemptions)
	turnAll := m.Histogram("sched.turnaround_cycles", trace.DefaultCycleBuckets)
	for _, j := range res.Jobs {
		turnAll.Observe(j.TurnaroundCycles())
		tn := fmt.Sprintf("sched.tenant%d.", j.Tenant)
		m.Counter(tn + "preemptions").Add(int64(j.Preemptions))
		m.Histogram(tn+"turnaround_cycles", trace.DefaultCycleBuckets).Observe(j.TurnaroundCycles())
		m.Histogram(tn+"queueing_cycles", trace.DefaultCycleBuckets).Observe(j.QueueCycles())
	}
}

// Render formats the result as a fixed-width report: the technique
// headline, per-tenant aggregates, then the per-job table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: makespan=%d cycles, preemptions=%d, turnaround p50/p95/p99 = %d/%d/%d\n",
		r.Kind, r.Makespan, r.TotalPreemptions, r.P50, r.P95, r.P99)
	fmt.Fprintf(&b, "  %-8s %5s %11s %11s %12s %12s %12s\n",
		"tenant", "jobs", "preempts", "mean-queue", "p50-turn", "p95-turn", "p99-turn")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-8d %5d %11d %11d %12d %12d %12d\n",
			t.Tenant, t.Jobs, t.Preemptions, t.MeanQueueCycles, t.P50, t.P95, t.P99)
	}
	fmt.Fprintf(&b, "  %-4s %-6s %-7s %4s %10s %10s %10s %10s %9s\n",
		"job", "kernel", "tenant", "prio", "arrival", "start", "complete", "turnaround", "preempts")
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "  %-4d %-6s %-7d %4d %10d %10d %10d %10d %9d\n",
			j.ID, j.Kernel, j.Tenant, j.Priority, j.Arrival, j.Start, j.Complete,
			j.TurnaroundCycles(), j.Preemptions)
	}
	return b.String()
}

// EventLog renders the decision log, one event per line.
func (r *Result) EventLog() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
