# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check chaos scenarios fleet-smoke trace-goldens benchmark-smoke race race-sched bench bench-json bench-diff experiments examples cover fuzz clean

all: build check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the default verification gate: vet, the end-to-end chaos
# scenarios, the declarative scenario library gated against its committed
# baseline (validate + run + coverage and hash gate), the fleet-scale smoke
# run, the full test suite under the race detector (independent simulations
# run side by side in bench.RunParallel and gridftp transfers share the stored
# file, so race coverage is load-bearing; the allocation-budget tests of
# internal/bench and internal/gridftp run here too), a focused race pass over
# the scheduler's coroutine switches, a short fuzz smoke over the wire-facing
# parsers, and the coverage floor — after the benchmark module, which `./...`
# does not reach, has been vetted and smoke-tested against this tree.
check: benchmark-smoke chaos scenarios fleet-smoke trace-goldens
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) race-sched
	$(MAKE) fuzz
	$(MAKE) cover

# race-sched gates the kernel's coroutine processes: control passes between
# the Run caller and the process coroutines (and, in Shutdown, from one
# process to another) with no synchronisation but the happens-before edge of
# each coroutine switch — iter.Pull's next, yield and stop, which the race
# detector models as release/acquire pairs and whose overlapping use it
# reports. So the race detector is the check, with one P and with several
# (the goroutine driving a Run need not be the one that spawned the process
# or drove the last Run).
race-sched:
	GOMAXPROCS=1 $(GO) test -race -count=3 ./internal/sim/
	GOMAXPROCS=4 $(GO) test -race -count=3 ./internal/sim/

# chaos runs the fault-injection recovery scenarios (see EXPERIMENTS.md,
# "Chaos runs") on their own, under the race detector.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/chaos/

# scenarios validates and runs the declarative scenario library (see
# EXPERIMENTS.md, "Scenario runs"): every file under scenarios/ must parse,
# validate, double-run bit-identically, and pass its declared assertions;
# the fresh summary is then gated against the committed SCENARIOS_suite.json
# baseline: a failed invariant, a shrunk scenario or invariant count, a
# dropped scenario name, or a changed or missing trace hash or fingerprint
# exits non-zero.
scenarios:
	$(GO) run ./cmd/simulator validate scenarios/*.yaml
	$(GO) run ./cmd/simulator run -json SCENARIOS_new.json scenarios/*.yaml
	$(GO) run ./cmd/benchdiff -scenarios-old SCENARIOS_suite.json -scenarios-new SCENARIOS_new.json

# fleet-smoke is the seconds-scale fleet gate: the open-loop engine's
# end-to-end and determinism tests (fresh, uncached), then a 20k-job fleet
# run through the real CLI. The full 10k-host / 1M-job scale point lives in
# scenarios/fleet-10k.yaml and runs under `make scenarios`.
fleet-smoke:
	$(GO) test -count=1 -run 'TestEngine' ./internal/fleet/
	$(GO) run ./cmd/experiments -run fleet -fleet-sites 8 -fleet-hosts 16 -fleet-jobs 20000

# benchmark-smoke builds what the pipeline's benchmark builds: benchmark/ is a
# module of its own (replaced onto this one), so neither `go build ./...` nor
# `go test ./...` compiles it, and a changed internal/ signature or a go.mod
# bump would otherwise fail only there. Offline, with the local toolchain,
# exactly as benchmark/run.sh does; the tests include the 1/50-scale run of
# all six workloads.
benchmark-smoke:
	cd benchmark && GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./... && GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...

# trace-goldens re-runs (uncached) the byte-exact observability goldens —
# the Chrome trace_event and JSONL exports, the HTML time-series report —
# plus the causal-analysis and tracer CLI tests. Regenerate intentional
# drift with `go test ./internal/obs/... -run Golden -update`.
trace-goldens:
	$(GO) test -count=1 -run 'Golden|TestChrome|TestBuild|TestDecompose|TestSummarize|TestSpanDurations|TestCausal|TestTable4Jobs|TestAnalyze|TestQuery|TestRoundTrip' ./internal/obs/... ./internal/bench/ ./cmd/tracer/

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json runs the kernel/data-plane microbenchmarks and emits machine-
# readable results for tracking regressions across commits. BENCHTIME
# stretches each benchmark enough that the whole-run rows (FleetSweep,
# ~100ms/op and up) get a stable sample; each benchmark runs three times and
# cmd/benchjson keeps the median run.
BENCHTIME ?= 2s
BENCH_PAT = KernelStep|KernelSwitch|KernelSpawn|KernelTimerStop|ObsSpan|ObsEmit|ObsHash|SimnetThroughput|MPIPingPong|TransferSingle|TransferParallel8|FleetSweep

bench-json:
	$(GO) test -run NONE -bench '$(BENCH_PAT)' -benchtime $(BENCHTIME) -count 3 -benchmem . | $(GO) run ./cmd/benchjson > BENCH_kernel.json
	@cat BENCH_kernel.json

# bench-diff re-runs the microbenchmarks and gates on regressions against
# the committed BENCH_kernel.json baseline: > BENCH_THRESHOLD relative ns/op
# or allocs/op growth (any growth at all on 0-alloc baselines) exits
# non-zero (see cmd/benchdiff).
BENCH_THRESHOLD ?= 0.10

bench-diff:
	$(GO) test -run NONE -bench '$(BENCH_PAT)' -benchtime $(BENCHTIME) -count 3 -benchmem . | $(GO) run ./cmd/benchjson > BENCH_new.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_kernel.json BENCH_new.json

experiments:
	$(GO) run ./cmd/experiments

examples:
	for d in examples/*/; do $(GO) run ./$$d || exit 1; done

# COVER_MIN is the statement-coverage floor `make cover` enforces over the
# whole module (cmd binaries included).
COVER_MIN ?= 70

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# fuzz gives each wire-facing parser a short, deterministic-budget fuzz run:
# the RSL parser, the proxy control-channel decoder, the gridftp MODE E
# block reader, the scenario-file parser, and the request handlers of the RMF
# allocator and Q server. Crashers land in testdata/fuzz/ and fail the build
# until fixed.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/rsl/
	$(GO) test -fuzz FuzzReadMsg -fuzztime $(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz FuzzReadBlock -fuzztime $(FUZZTIME) ./internal/gridftp/
	$(GO) test -fuzz FuzzScenario -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -fuzz FuzzAllocatorRequest -fuzztime $(FUZZTIME) ./internal/rmf/
	$(GO) test -fuzz FuzzQServerRequest -fuzztime $(FUZZTIME) ./internal/rmf/

clean:
	$(GO) clean ./...
