# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check chaos scenarios fleet-smoke trace-goldens benchmark-smoke race race-sched bench experiments examples cover fuzz clean

all: build check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the default verification gate: vet, the end-to-end chaos
# scenarios, the declarative scenario library gated against its committed
# baseline, the fleet-scale smoke run, the full test suite under the race
# detector (independent simulations run side by side in bench.RunParallel,
# gridftp transfers share the stored file, and concurrent bench.RunTransfer
# calls share one cached source file that a call of another size replaces,
# so race coverage is load-bearing; the allocation pins beside the kernel,
# trace store, MPI and data-plane code run here too), every benchmark once so
# none rots, a focused race pass over the scheduler's coroutine switches, a
# short fuzz smoke over the wire-facing parsers, and the coverage floor —
# after the benchmark module, which `./...` does not reach, has been vetted
# and smoke-tested against this tree. The race suite runs at go test's
# default -p: its largest test binaries peak at about 1.5 GB of RSS
# (internal/scenario, almost all of it the race runtime's own state; its Go
# heap stays under 100 MB) and 1.1 GB (internal/proxy), so two side by side
# fit an 8 GB machine.
check: benchmark-smoke chaos scenarios fleet-smoke trace-goldens
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run NONE -bench . -benchtime 1x ./...
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
# or drove the last Run). The in-place relay pumps and stream readers, whose
# steps run on whichever stack is scheduling, get the same two passes. So do
# the TCP relay tests: a real relay's two pumps are separate goroutines that
# share an atomic byte counter, and a direction that fills its buffer hands
# off from the read/write loop to splice(2), which changes how they
# interleave. And so do the TCP tests of the control plane (nexus, gram,
# gass, rmf, hbm, mds): a frame on a real socket is built in a pooled buffer that
# every writer goroutine shares, and a TCPEnv's idle sessions are one
# table its goroutines share while a daemon's Close races its sessions. And
# the TCP tests of mpi and knapsack: a TCPEnv inbox is a goroutine-backed
# queue, a receive with no deadline (Recv, RecvTimeout with d < 0) waits on
# it, and the Message records it carries are taken on a Nexus reader's
# goroutine and recycled on the rank's.
# And so do all of gridftp's tests, most of which run on loopback TCP: a
# transfer's parallel channel goroutines share one block receiver (the sink
# and its ledger) and one progress counter, and the server's control and
# data handlers share one transfer registry and the upload partials.
race-sched:
	GOMAXPROCS=1 $(GO) test -race -count=3 ./internal/sim/
	GOMAXPROCS=4 $(GO) test -race -count=3 ./internal/sim/
	GOMAXPROCS=1 $(GO) test -race -count=3 -run InPlace ./internal/simnet ./internal/proxy
	GOMAXPROCS=4 $(GO) test -race -count=3 -run InPlace ./internal/simnet ./internal/proxy
	GOMAXPROCS=1 $(GO) test -race -count=3 -run TCP ./internal/proxy ./internal/transport ./internal/nexus ./internal/mpi ./internal/knapsack ./internal/gram ./internal/gass ./internal/rmf ./internal/hbm ./internal/mds
	GOMAXPROCS=4 $(GO) test -race -count=3 -run TCP ./internal/proxy ./internal/transport ./internal/nexus ./internal/mpi ./internal/knapsack ./internal/gram ./internal/gass ./internal/rmf ./internal/hbm ./internal/mds
	GOMAXPROCS=1 $(GO) test -race -count=3 ./internal/gridftp
	GOMAXPROCS=4 $(GO) test -race -count=3 ./internal/gridftp

# chaos runs the fault-injection recovery scenarios (see EXPERIMENTS.md,
# "Chaos runs") on their own, under the race detector.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/bench/

# scenarios validates and runs the declarative scenario library (see
# EXPERIMENTS.md, "Scenario runs"): every file under scenarios/ must parse,
# validate, double-run bit-identically, pass its declared assertions and
# reproduce its row of the committed SCENARIOS_suite.json — a failed
# invariant, a row without a file or a file without a row, or a changed trace
# hash, fingerprint or invariant count exits non-zero (TestShippedScenariosRun).
# The paper-scale files under scenarios/paper/ are validated, not run (they
# have no row; `make experiments` runs them).
scenarios:
	$(GO) run ./cmd/simulator validate scenarios/*.yaml scenarios/paper/*.yaml
	$(GO) test -count=1 -run TestShippedScenarios ./internal/scenario/

# fleet-smoke is the seconds-scale fleet gate: the open-loop engine's
# end-to-end and determinism tests (fresh, uncached), then the 50k-job flash
# crowd through the real CLI, which prints its fleet summary. The full
# 10k-host / 1M-job scale point lives in scenarios/fleet-10k.yaml and runs
# under `make scenarios`.
fleet-smoke:
	$(GO) test -count=1 -run 'TestEngine' ./internal/fleet/
	$(GO) run ./cmd/simulator run scenarios/fleet-flash-crowd.yaml

# benchmark-smoke builds what the pipeline's benchmark builds: benchmark/ is a
# module of its own (replaced onto this one), so neither `go build ./...` nor
# `go test ./...` compiles it, and a changed internal/ signature or a go.mod
# bump would otherwise fail only there. Offline, with the local toolchain,
# exactly as benchmark/run.sh does; the tests include the 1/50-scale run of
# all six workloads.
benchmark-smoke:
	cd benchmark && GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./... && GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...

# trace-goldens re-runs (uncached) the byte-exact goldens — the Chrome
# trace_event and JSONL exports, the time-series JSONL, and the bench
# reports no scenario kind renders (Figures 1-5, Table 3, the bandwidth sweep,
# the latency decomposition) and Tables 4-6 at capacity 4 — plus the
# causal-analysis and tracer CLI tests.
# Regenerate intentional drift with `go test ./internal/obs -run Golden
# -update` or `go test ./internal/bench -run Golden -update`.
trace-goldens:
	$(GO) test -count=1 -run 'Golden|TestChrome|TestBuild|TestDecompose|TestSummarize|TestSpanDurations|TestCausal|TestTable4Jobs|TestAnalyze|TestQuery|TestRoundTrip' ./internal/obs/... ./internal/bench/ ./cmd/tracer/

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# experiments regenerates the paper's evaluation: Table 2 from the library
# file, then Tables 4-6, the GridFTP sweep, the monitored run and the fleet
# run from the paper-scale files, each row followed by its report.
experiments:
	$(GO) run ./cmd/simulator run scenarios/table2-rtt.yaml scenarios/paper/*.yaml

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
# block reader, restart-marker decoder and ledger, the scenario-file parser
# (each accepted spec's config and comparator built through its kind's
# entry), the HBM client's list-reply decoder and the knapsack work-batch
# decoder; the control daemons behind the one port (internal/wirefuzz: the
# gatekeeper's half of the authentication handshake, and the sessions of
# the gatekeeper, the RMF allocator and Q server, the HBM monitor, the MDS
# directory server and the GASS server, each through its Serve on in-memory
# pipes and held to one allocation bound, the least of 3 runs of an input);
# and it fuzzes the kernel's lane merge against the heap-only firing order,
# SleepEach's in-place slices (sleeping or parked on a Cond or Semaphore)
# against the blocking loop they replace, the in-place relay pumps and Nexus
# frame reader against their blocking loops, the hash-only trace observer
# against the recording one, its folded span durations against the causal
# forest's, and the knapsack solver's BranchN loop against one branch
# operation at a time.
# Crashers land in testdata/fuzz/ and fail the build until fixed.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/rsl/
	$(GO) test -fuzz FuzzReadMsg -fuzztime $(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz FuzzReadBlock -fuzztime $(FUZZTIME) ./internal/gridftp/
	$(GO) test -fuzz FuzzDecodeLedger -fuzztime $(FUZZTIME) ./internal/gridftp/
	$(GO) test -fuzz FuzzLedgerAdd -fuzztime $(FUZZTIME) ./internal/gridftp/
	$(GO) test -fuzz FuzzScenario -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -fuzz FuzzAllocatorRequest -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzQServerRequest -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzDirectoryRequest -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzMonitorRequest -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzListReply -fuzztime $(FUZZTIME) ./internal/hbm/
	$(GO) test -fuzz FuzzDecodeNodes -fuzztime $(FUZZTIME) ./internal/knapsack/
	$(GO) test -fuzz FuzzAuthAccept -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzGatekeeperSession -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzGASSSession -fuzztime $(FUZZTIME) ./internal/wirefuzz/
	$(GO) test -fuzz FuzzLaneOrder -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -fuzz FuzzSleepEachOrder -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -fuzz FuzzRelayInPlace -fuzztime $(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz FuzzRSRFrames -fuzztime $(FUZZTIME) ./internal/nexus/
	$(GO) test -fuzz FuzzHashOnlyMatchesRecording -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -fuzz FuzzFoldMatchesSpanDurations -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -fuzz FuzzBranchN -fuzztime $(FUZZTIME) ./internal/knapsack/

clean:
	$(GO) clean ./...
