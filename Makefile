GO ?= go

.PHONY: all build test check bench bench-smoke bench-test eval trace-smoke evalcheck sched-smoke serve-smoke procs-diff snap-diff gen-smoke cache-diff chaos-smoke gpusim-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the PR gate: require gofmt-clean sources, vet everything, run
# the packages that carry concurrency (the parallel harness, the
# simulator it drives, the fault-recovery policy its chaos sweep shares
# across workers, and the metrics registry they share) under the
# race detector, race the technique memo that concurrent episodes share
# (its tests only: the whole preempt suite takes minutes under -race),
# race concurrent CTXBack compiles (each owns its workspace; they share
# only read-only CFG and liveness), then smoke the tracing pipeline end
# to end.
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -race ./internal/artifact/ ./internal/chaos/ ./internal/harness/ ./internal/sched/ ./internal/sim/ ./internal/snapshot/ ./internal/trace/ ./internal/gen/...
	$(GO) test -race -run '^TestMemo' ./internal/preempt/
	$(GO) test -race -run '^TestCompileConcurrent$$' ./internal/core/
	$(MAKE) trace-smoke

# trace-smoke runs one preempted kernel with -trace and validates the
# emitted Chrome trace-event JSON (known phase types, cycle-monotone
# order) with tracecheck. The same run takes CPU and allocation profiles,
# which go tool pprof must read back.
trace-smoke:
	$(GO) run ./cmd/gpusim -kernel VA -technique CTXBack -trace /tmp/ctxback-smoke.trace.json \
		-cpuprofile /tmp/ctxback-smoke.cpu.pprof -memprofile /tmp/ctxback-smoke.mem.pprof
	$(GO) run ./cmd/tracecheck /tmp/ctxback-smoke.trace.json
	$(GO) tool pprof -top /tmp/ctxback-smoke.cpu.pprof > /dev/null
	$(GO) tool pprof -top /tmp/ctxback-smoke.mem.pprof > /dev/null

# sched-smoke replays a tiny contended multi-tenant trace under all
# eight techniques on the preemptive scheduler and diffs the full report
# (trace, per-technique stats, per-job tables) against the checked-in
# golden. Any nondeterminism or unintended stats change fails the diff.
# The run repeats with -cpuprofile, which must not change a byte.
# The second diff covers failover in the serve loop: the same 8-job
# trace on two devices with periodic whole-device checkpoints and a
# device kill — a warm restore under CTXBack, an empty replacement plus
# requeue under CKPT — down to the decision log and the per-job
# slab-digest witness.
FAILOVER_ARGS = -serve -quick -seed 9 -process uniform -devices 2 -checkpoint-every 40000 -statehash
sched-smoke:
	$(GO) run ./cmd/schedsim -quick -seed 9 > /tmp/ctxback-sched-smoke.txt
	diff -u testdata/sched_smoke.golden /tmp/ctxback-sched-smoke.txt
	$(GO) run ./cmd/schedsim -quick -seed 9 -cpuprofile /tmp/ctxback-sched-smoke.cpu.pprof > /tmp/ctxback-sched-smoke-prof.txt
	diff -u testdata/sched_smoke.golden /tmp/ctxback-sched-smoke-prof.txt
	$(GO) run ./cmd/schedsim $(FAILOVER_ARGS) -kinds CTXBack,CKPT -kill-device 0@80000 -warm-pool 1 > /tmp/ctxback-sched-failover.txt
	diff -u testdata/sched_failover.golden /tmp/ctxback-sched-failover.txt
	@echo "sched and failover reports byte-identical"

# serve-smoke is the long-running serving gate: a seeded open-loop
# bursty+diurnal trace (~167k arrivals over 40M cycles) drives four
# tenants through admission control, load-aware routing across two
# devices, and the online hypervisor (share re-arbitration plus one
# warm-pool rebalancing migration) to drain. The full decision log and
# SLO tables must be byte-identical to the checked-in golden, and —
# since cross-device decisions run serially at global barriers — also
# across worker counts. The golden carries 3 "shares"
# re-arbitrations and 1 "migrate" warm restore.
SERVE_SMOKE_ARGS = -serve -quick -kinds CTXBack -iters 2 -sms 2 \
	-duration 40000000 -gap 400 -tenants 4 -burst 0.25 -diurnal 0.3 \
	-admit 150 -queue 12 -hypervisor-every 20000 -report-every 400000 \
	-migrate-threshold 3 -devices 2 -warm-pool 1 -seed 42
serve-smoke:
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -procs 1 > /tmp/ctxback-serve-p1.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-serve-p1.txt
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -procs 4 > /tmp/ctxback-serve-p4.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-serve-p4.txt
	@echo "serve decision log and SLO tables byte-identical across -procs"

# snap-diff guards failover determinism end to end: the per-job
# slab-digest state witness must be byte-identical between an
# undisturbed serve run, a run whose device 0 is killed at cycle 80000
# (CTXBack restores its last whole-device checkpoint), and the same kill
# restored from the warm context pool; and, on the non-relocatable path,
# between an undisturbed and a killed CKPT run, whose dead device is
# replaced empty and its undelivered jobs requeued.
snap-diff:
	$(GO) run ./cmd/schedsim $(FAILOVER_ARGS) -kinds CTXBack | grep '^job ' > /tmp/ctxback-snap-base.txt
	$(GO) run ./cmd/schedsim $(FAILOVER_ARGS) -kinds CTXBack -kill-device 0@80000 | grep '^job ' > /tmp/ctxback-snap-kill.txt
	$(GO) run ./cmd/schedsim $(FAILOVER_ARGS) -kinds CTXBack -kill-device 0@80000 -warm-pool 1 | grep '^job ' > /tmp/ctxback-snap-warm.txt
	$(GO) run ./cmd/schedsim $(FAILOVER_ARGS) -kinds CKPT | grep '^job ' > /tmp/ctxback-snap-ckpt-base.txt
	$(GO) run ./cmd/schedsim $(FAILOVER_ARGS) -kinds CKPT -kill-device 0@80000 | grep '^job ' > /tmp/ctxback-snap-ckpt-kill.txt
	test -s /tmp/ctxback-snap-base.txt && test -s /tmp/ctxback-snap-ckpt-base.txt
	diff -u /tmp/ctxback-snap-base.txt /tmp/ctxback-snap-kill.txt
	diff -u /tmp/ctxback-snap-kill.txt /tmp/ctxback-snap-warm.txt
	diff -u /tmp/ctxback-snap-ckpt-base.txt /tmp/ctxback-snap-ckpt-kill.txt
	@echo "failover state witness byte-identical: undisturbed vs killed, cold vs warm, CKPT requeue"

# gen-smoke is the generated-corpus differential gate: the 1000 seeds
# the benchmark's gencorpus workload draws from, run by the seeded SIMT
# generator uninterrupted and under forced mid-flight preemption by all
# 8 techniques, byte-compared against the host-side golden interpreter,
# with every sampled oracle enabled (scan-vs-readyqueue lockstep, resume
# integrity, snapshot round-trip, fault-injection chaos). genrun exits
# nonzero on any divergence. Its report (per-technique pass, drained and
# skipped counts, oracle and chaos-outcome tallies) must byte-match
# testdata/gen_smoke.golden, so a reclassified episode fails too.
gen-smoke:
	$(GO) run ./cmd/genrun -n 1000 -procs 8 > /tmp/ctxback-gen-smoke.txt
	diff -u testdata/gen_smoke.golden /tmp/ctxback-gen-smoke.txt
	@echo "generated corpus differential sweep clean and byte-identical"

# gpusim-smoke pins gpusim's stdout: a plain preemption, a whole-device
# checkpoint and restore, a faulty CKPT run with its instruction tail, a
# lost signal re-raised, and three lost signals then a detection that
# degrades through the BASELINE fallback ladder. The runs' concatenated
# stdout must byte-match testdata/gpusim_smoke.golden. A NaN -at, and
# -faults with -checkpoint (the restored device carries no injector),
# must be usage errors (exit 2).
GPUSIM_SMOKE_RUNS = "-kernel KM -technique CTXBack" \
	"-kernel KM -technique CTXBack -checkpoint" \
	"-kernel VA -technique CKPT -faults 0.05 -fault-seed 1 -tail 3" \
	"-kernel VA -technique LIVE -faults 0.05 -fault-seed 15" \
	"-kernel VA -technique LIVE -faults 0.3 -fault-seed 10"
gpusim-smoke:
	$(GO) build -o /tmp/ctxback-gpusim ./cmd/gpusim
	for a in $(GPUSIM_SMOKE_RUNS); do echo "== gpusim $$a"; /tmp/ctxback-gpusim $$a || exit 1; done > /tmp/ctxback-gpusim-smoke.txt
	diff -u testdata/gpusim_smoke.golden /tmp/ctxback-gpusim-smoke.txt
	/tmp/ctxback-gpusim -kernel KM -technique CTXBack -at NaN 2> /dev/null; test $$? -eq 2
	/tmp/ctxback-gpusim -kernel VA -technique CTXBack -checkpoint -faults 0.02 2> /dev/null; test $$? -eq 2
	@echo "gpusim runs byte-identical; a NaN -at and -faults with -checkpoint are usage errors"

# chaos-smoke runs the quick fault-injection sweep at rate 0.2 over all
# three detection modes (checksum, resume-integrity oracle, snapshot
# corruption) and diffs its report against the checked-in golden. The
# sweep exits nonzero on any silent-wrong or unrecoverable episode,
# which fails the target before the diff.
chaos-smoke:
	$(GO) run ./cmd/benchtab -quick -chaos -faults 0.2 > /tmp/ctxback-chaos-smoke.txt
	diff -u testdata/chaos_smoke.golden /tmp/ctxback-chaos-smoke.txt
	@echo "chaos sweep byte-identical"

bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/core/ ./internal/preempt/ ./internal/snapshot/ ./internal/artifact/

# bench-smoke is the CI flavor of bench: one iteration per benchmark,
# no timing thresholds — it only proves every benchmark still compiles,
# runs, and reports allocations.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/sim/ ./internal/core/ ./internal/preempt/ ./internal/snapshot/ ./internal/artifact/

# bench-test runs the repository benchmark's own test (bench/ is a
# module of its own, so the root go test ./... skips it): a simulator
# change that breaks a benchmark workload fails here, not first in an
# A/B run.
bench-test:
	cd bench && $(GO) test ./...

# procs-diff guards evaluation-engine determinism across parallelism:
# the quick sweep and the QoS waiting-time table, which runs on the same
# worker pool, must emit byte-identical output at -procs 1 and -procs 4
# (worker count may reorder episode execution, never results). The
# -procs 1 sweep must also match testdata/quick_sweep.golden, which the
# tier-1 TestQuickSweepGolden renders in-process, so the CLI's flag
# wiring stays pinned too.
procs-diff:
	$(GO) run ./cmd/benchtab -quick -procs 1 > /tmp/ctxback-procs1.txt
	diff -u testdata/quick_sweep.golden /tmp/ctxback-procs1.txt
	$(GO) run ./cmd/benchtab -quick -procs 4 > /tmp/ctxback-procs4.txt
	diff -u /tmp/ctxback-procs1.txt /tmp/ctxback-procs4.txt
	$(GO) run ./cmd/benchtab -quick -qos KM -procs 1 > /tmp/ctxback-qos-procs1.txt
	$(GO) run ./cmd/benchtab -quick -qos KM -procs 4 > /tmp/ctxback-qos-procs4.txt
	diff -u /tmp/ctxback-qos-procs1.txt /tmp/ctxback-qos-procs4.txt
	@echo "quick sweep matches its golden; it and the QoS table byte-identical across -procs 1/4"

# cache-diff guards the artifact store's byte-identity contract: the
# quick evaluation sweep and the serve smoke must produce identical
# bytes with the store in memory only (no -cache-dir), cold (empty
# directory, computes and publishes) and warm (second run over the same
# directory, loads everything from disk). Any drift between the three
# means a cached artifact decodes to something the cold path would not
# have computed.
CACHE_DIR = /tmp/ctxback-cache-diff
cache-diff:
	rm -rf $(CACHE_DIR)
	$(GO) run ./cmd/benchtab -quick > /tmp/ctxback-cache-off.txt
	$(GO) run ./cmd/benchtab -quick -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-cold.txt
	$(GO) run ./cmd/benchtab -quick -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-warm.txt
	diff -u /tmp/ctxback-cache-off.txt /tmp/ctxback-cache-cold.txt
	diff -u /tmp/ctxback-cache-cold.txt /tmp/ctxback-cache-warm.txt
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-serve-cold.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-cache-serve-cold.txt
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-serve-warm.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-cache-serve-warm.txt
	@echo "eval sweep and serve golden byte-identical: in memory only, cold and warm"

# Regenerate EXPERIMENTS.md from a full evaluation sweep.
eval:
	$(GO) run ./cmd/benchtab -all -samples 3 > eval_output.txt
	./mk_experiments.sh

# evalcheck guards the observability layer's zero-overhead contract:
# with tracing and metrics disabled (the default), a full evaluation
# sweep must reproduce eval_output.txt byte for byte.
evalcheck:
	$(GO) run ./cmd/benchtab -all -samples 3 > /tmp/ctxback-evalcheck.txt
	diff -u eval_output.txt /tmp/ctxback-evalcheck.txt
	@echo "eval output byte-identical"
