// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation. Each benchmark runs the corresponding experiment
// end to end on the simulated testbed and reports the paper's headline
// metrics as custom benchmark units, so `go test -bench=.` reproduces the
// whole evaluation:
//
//	BenchmarkTable2Latency*    — one-way latency, direct vs via proxy
//	BenchmarkTable2Bandwidth*  — 4 KiB / 1 MiB message bandwidth
//	BenchmarkTable4*           — knapsack execution time and speedup per system
//	BenchmarkTable5Steals      — steal-request statistics
//	BenchmarkTable6Traversed   — traversed-node statistics
//	BenchmarkFigure*           — topology/flow experiments
//	BenchmarkAblation*         — design-choice sweeps from DESIGN.md
//	BenchmarkTransfer*         — congestion-modeled gridftp bulk transfers
package repro

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/fleet"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// table2Rows runs the Table 2 measurement once per benchmark iteration and
// returns the last result.
func table2Rows(b *testing.B) []bench.Table2Row {
	b.Helper()
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunTable2(bench.Table2Config{Rounds: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func BenchmarkTable2LatencyAndBandwidth(b *testing.B) {
	rows := table2Rows(b)
	for _, r := range rows {
		prefix := strings.ReplaceAll(r.Path, " <-> ", "~") + "/" + r.Mode()
		b.ReportMetric(float64(r.Latency)/float64(time.Millisecond), "ms-latency:"+prefix)
	}
	b.ReportMetric(rows[0].Bandwidth[1<<20]/(1<<20), "MBps-1MB-direct-LAN")
	b.ReportMetric(rows[1].Bandwidth[1<<20]/(1<<10), "KBps-1MB-proxy-LAN")
	b.ReportMetric(rows[2].Bandwidth[1<<20]/(1<<10), "KBps-1MB-direct-WAN")
	b.ReportMetric(rows[3].Bandwidth[1<<20]/(1<<10), "KBps-1MB-proxy-WAN")
}

// knapsackReport runs the Tables 4-6 sweep once per iteration (capacity 3
// keeps a full iteration under ~150 ms of host time).
func knapsackReport(b *testing.B) *bench.KnapsackReport {
	b.Helper()
	var r *bench.KnapsackReport
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunKnapsack(bench.KnapsackConfig{Capacity: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func BenchmarkTable4ExecutionAndSpeedup(b *testing.B) {
	b.ReportAllocs()
	r := knapsackReport(b)
	b.ReportMetric(r.SeqTime.Seconds(), "vsec-sequential")
	for _, row := range r.Rows {
		b.ReportMetric(row.Speedup, "speedup:"+strings.ReplaceAll(row.System, " ", "-"))
	}
	b.ReportMetric(r.ProxyOverhead()*100, "pct-proxy-overhead")
}

func BenchmarkTable5Steals(b *testing.B) {
	r := knapsackReport(b)
	b.ReportMetric(float64(r.Local.MasterHandled), "steals-local-master")
	b.ReportMetric(float64(r.Wide.MasterHandled), "steals-wide-master")
}

func BenchmarkTable6Traversed(b *testing.B) {
	r := knapsackReport(b)
	b.ReportMetric(float64(r.Wide.Stats[0].Traversed), "nodes-wide-master")
	b.ReportMetric(float64(r.Wide.TotalTraversed), "nodes-total")
}

func BenchmarkFigure2SubmissionFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3ActiveOpen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4PassiveOpen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRelayBuffer sweeps the relay buffer size — the knob
// behind the paper's small-message bandwidth cliff (DESIGN.md ablation 1).
func BenchmarkAblationRelayBuffer(b *testing.B) {
	for _, bufBytes := range []int{1024, 4096, 16384} {
		bufBytes := bufBytes
		b.Run(byteSize(bufBytes), func(b *testing.B) {
			var rows []bench.Table2Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = bench.RunTable2(bench.Table2Config{
					Rounds:  2,
					Options: cluster.Options{RelayBufBytes: bufBytes},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[1].Bandwidth[1<<20]/(1<<10), "KBps-1MB-proxy-LAN")
		})
	}
}

// BenchmarkAblationStealUnit sweeps the self-scheduler's stealunit
// (DESIGN.md ablation 2; the paper "varied stealunit, interval, and
// backunit and took the best combination").
func BenchmarkAblationStealUnit(b *testing.B) {
	for _, su := range []int{1, 2, 4} {
		su := su
		b.Run(intName("stealunit", su), func(b *testing.B) {
			var r *bench.KnapsackReport
			for i := 0; i < b.N; i++ {
				p := knapsack.DefaultParams()
				p.StealUnit = su
				var err error
				r, err = bench.RunKnapsack(bench.KnapsackConfig{Capacity: 3, Params: p})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, row := range r.Rows {
				if row.System == "Wide-area Cluster (use Nexus Proxy)" {
					b.ReportMetric(row.Speedup, "speedup-wide")
				}
			}
		})
	}
}

// BenchmarkAblationProxyPlacement compares both-endpoints-proxied (COMPaS
// style) against one-side-proxied (ETL style) round trips (DESIGN.md
// ablation 3); the measurement is built into Table 2's two indirect rows.
func BenchmarkAblationProxyPlacement(b *testing.B) {
	rows := table2Rows(b)
	b.ReportMetric(float64(rows[1].Latency)/float64(time.Millisecond), "ms-both-sides-proxied")
	b.ReportMetric(float64(rows[3].Latency)/float64(time.Millisecond), "ms-one-side-proxied")
}

// BenchmarkObsSpan measures the observability layer's span hot path. The
// disabled leaf is the price every instrumented site pays when tracing is
// off — a nil receiver check, zero allocations (pinned by the regression
// test in internal/obs) — and the enabled/traced leaves are the marginal
// cost of flat spans and causal parent/child spans when a trace is on.
func BenchmarkObsSpan(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		var o *obs.Observer
		for i := 0; i < b.N; i++ {
			at := time.Duration(i)
			id := o.Begin(at, "rmf", "job", "bench")
			o.End(at+1, id, "rmf", "job", "bench")
		}
	})
	// The enabled/traced leaves reset the observer every 64k spans, outside
	// the timer: otherwise the event buffer grows with b.N and the measured
	// cost is dominated by slice-doubling copies and GC scans of an
	// ever-larger live buffer — a number that depends on -benchtime, not on
	// the span hot path.
	const resetMask = 1<<16 - 1
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		o := obs.New()
		for i := 0; i < b.N; i++ {
			if i&resetMask == resetMask {
				b.StopTimer()
				o = obs.New()
				b.StartTimer()
			}
			at := time.Duration(i)
			id := o.Begin(at, "rmf", "job", "bench")
			o.End(at+1, id, "rmf", "job", "bench")
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		o := obs.New()
		root := o.BeginTrace(0, "rmf", "job", "bench")
		for i := 0; i < b.N; i++ {
			if i&resetMask == resetMask {
				b.StopTimer()
				o = obs.New()
				root = o.BeginTrace(0, "rmf", "job", "bench")
				b.StartTimer()
			}
			at := time.Duration(i)
			child := o.BeginChild(at, root, "gram", "submit", "bench")
			o.EndSpan(at+1, child, "gram", "submit", "bench")
		}
	})
}

// obsTraceEvents is the trace length BenchmarkObsEmit records and
// BenchmarkObsHash hashes: the size of a chaos scenario's trace, well past
// the store's chunk doubling.
const obsTraceEvents = 1_000_000

// emitTrace records obsTraceEvents instants with three integer fields — the
// shape of simnet's per-buffer delivery event — on one fresh observer.
func emitTrace() *obs.Observer {
	o := obs.New()
	for i := 0; i < obsTraceEvents; i++ {
		v := int64(i)
		o.Emit(time.Duration(i), "net", "deliver", "bench", obs.Int("bytes", v), obs.Int("seq", v), obs.Int("hop", 3))
	}
	return o
}

// BenchmarkObsEmit is the trace store's ledger row: what recording one event
// costs over a whole run's trace, growth of the store included (which
// BenchmarkObsSpan resets away). One op is the full trace.
func BenchmarkObsEmit(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if emitTrace().Len() != obsTraceEvents {
			b.Fatal("trace lost events")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N) * obsTraceEvents
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}

// BenchmarkObsHash is the determinism witness's row: serializing and
// FNV-hashing that trace, which every scenario run does once.
func BenchmarkObsHash(b *testing.B) {
	o := emitTrace()
	want := o.Hash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Hash() != want {
			b.Fatal("hash not stable")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*obsTraceEvents), "ns/event")
}

// BenchmarkSimnetThroughput measures raw simulator performance: virtual
// bytes streamed per host-second, the substrate cost every experiment pays.
func BenchmarkSimnetThroughput(b *testing.B) {
	const size = 1 << 20
	b.ReportAllocs()
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		k := sim.New()
		n := simnet.New(k)
		n.AddHost("a", simnet.HostConfig{})
		n.AddHost("b", simnet.HostConfig{})
		n.Connect("a", "b", simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: 100 << 20})
		n.Node("b").SpawnDaemonOn("sink", func(env transport.Env) {
			l, _ := env.Listen(1)
			c, err := l.Accept(env)
			if err != nil {
				return
			}
			buf := make([]byte, 64*1024)
			total := 0
			for total < size {
				nn, err := c.Read(env, buf)
				if err != nil {
					return
				}
				total += nn
			}
			_, _ = c.Write(env, []byte{1})
		})
		n.Node("a").SpawnOn("src", func(env transport.Env) {
			env.Sleep(time.Millisecond)
			c, err := env.Dial("b:1")
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = c.Write(env, make([]byte, size))
			one := make([]byte, 1)
			_, _ = c.Read(env, one)
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		k.Shutdown()
	}
}

// BenchmarkKernelStep measures the kernel's per-step cost on the hot
// Sleep/wake path: each iteration is one Step (a ready-task run or an event
// fire). Steady state is allocation-free — events come from the kernel's
// free list and wakeups reference the process directly, with no callback
// closure.
func BenchmarkKernelStep(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	k.SpawnDaemon("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkKernelSwitch measures a process switch on the path runs actually
// take: driven through Run, where a parking process schedules onwards itself
// (BenchmarkKernelStep's Step always returns to its caller, which no workload
// does). Each op is one resume: of a lone sleeper that is always its own
// successor (self: no switch), of two processes alternating over an
// unbuffered Chan (pair: two coroutine switches, through the Run caller), and
// of twenty sleepers offset by 50 ns so their wakeups interleave
// (staggered20).
func BenchmarkKernelSwitch(b *testing.B) {
	sleeper := func(offset time.Duration, n int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			p.Sleep(offset)
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		}
	}
	for _, c := range []struct {
		name  string
		spawn func(k *sim.Kernel, n int)
	}{
		{"self", func(k *sim.Kernel, n int) { k.Spawn("s", sleeper(0, n)) }},
		{"pair", func(k *sim.Kernel, n int) {
			c := sim.NewChan[int](k, 0)
			k.Spawn("ping", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					_ = c.Send(p, i)
				}
			})
			k.Spawn("pong", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					_, _ = c.Recv(p)
				}
			})
		}},
		{"staggered20", func(k *sim.Kernel, n int) {
			for j := 0; j < 20; j++ {
				k.Spawn("s", sleeper(time.Duration(j)*50*time.Nanosecond, (n+19)/20))
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			k := sim.New()
			c.spawn(k, b.N)
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			k.Shutdown()
		})
	}
}

// BenchmarkKernelSpawn measures a process's fixed cost: each op spawns a
// process with an empty body from a parent that then yields, so the child is
// created, scheduled once, exits and leaves the table. The allocations are
// the Proc, the body closure and the state iter.Pull keeps per coroutine.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	k.Spawn("parent", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			k.Spawn("child", func(*sim.Proc) {})
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelTimerStop measures arming and immediately canceling a
// timer. The index-aware event heap removes the canceled event in O(log n)
// instead of leaking it until its deadline, so churned timeouts cost only
// the Timer handle.
func BenchmarkKernelTimerStop(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Second, fn).Stop()
	}
}

// BenchmarkMPIPingPong measures the simulated MPI stack's host-side cost.
func BenchmarkMPIPingPong(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("a", simnet.HostConfig{})
	n.AddHost("b", simnet.HostConfig{})
	n.Connect("a", "b", simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 100 << 20})
	w := mpi.NewWorld([]mpi.Placement{
		{Name: "a", Spawn: n.Node("a").SpawnOn},
		{Name: "b", Spawn: n.Node("b").SpawnOn},
	})
	iters := b.N
	w.Launch(func(c *mpi.Comm) error {
		payload := make([]byte, 64)
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 1, payload); err != nil {
					return err
				}
				if _, err := c.Recv(1, 2); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, 1); err != nil {
					return err
				}
				if err := c.Send(0, 2, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		b.Fatal(err)
	}
}

// transferPointBench runs one congestion-modeled gridftp sweep point per
// iteration (1 MiB at 2% segment loss through the firewall proxy) and
// reports the resulting goodput alongside the host-side cost of simulating
// it.
func transferPointBench(b *testing.B, streams int) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	cfg := bench.TransferConfig{
		FileSize:  1 << 20,
		Streams:   []int{streams},
		LossRates: []float64{0.02},
	}
	var pts []bench.TransferPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.RunTransfer(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Goodput/(1<<10), "KBps-goodput")
}

// BenchmarkTransferSingle is the lossy bulk transfer on one data channel —
// a single Reno flow paying the full congestion-recovery cost.
func BenchmarkTransferSingle(b *testing.B) { transferPointBench(b, 1) }

// BenchmarkTransferParallel8 is the same transfer over eight parallel data
// channels, GridFTP's loss-tolerance lever.
func BenchmarkTransferParallel8(b *testing.B) { transferPointBench(b, 8) }

// BenchmarkProxyRelayTCP measures the real-TCP relay's throughput on
// loopback (the engineering artifact itself, not the simulation).
func BenchmarkProxyRelayTCP(b *testing.B) {
	env := transport.NewTCPEnv("localhost")
	inner := proxy.NewInnerServer(proxy.RelayConfig{})
	innerReady := make(chan string, 1)
	env.Spawn("inner", func(e transport.Env) {
		_ = inner.Serve(e, 0, func(a string) { innerReady <- a })
	})
	outer := proxy.NewOuterServer(<-innerReady, proxy.RelayConfig{})
	outerReady := make(chan string, 1)
	env.Spawn("outer", func(e transport.Env) {
		_ = outer.Serve(e, 0, func(a string) { outerReady <- a })
	})
	cfg := proxy.Config{OuterServer: <-outerReady, InnerServer: inner.Addr()}
	defer outer.Close(env)
	defer inner.Close(env)

	sink, err := env.Listen(0)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close(env)
	const chunk = 1 << 20
	env.Spawn("sink", func(e transport.Env) {
		for {
			c, err := sink.Accept(e)
			if err != nil {
				return
			}
			conn := c
			e.Spawn("drain", func(e2 transport.Env) {
				buf := make([]byte, 64*1024)
				total := 0
				for {
					n, err := conn.Read(e2, buf)
					total += n
					if total >= chunk {
						_, _ = conn.Write(e2, []byte{1})
						total = 0
					}
					if err != nil {
						return
					}
				}
			})
		}
	})

	c, err := proxy.NXProxyConnect(env, cfg, sink.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close(env)
	b.SetBytes(chunk)
	b.ResetTimer()
	data := make([]byte, chunk)
	ack := make([]byte, 1)
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(env, data); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(env, ack); err != nil {
			b.Fatal(err)
		}
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return intName("buf", n>>20) + "MiB"
	case n >= 1<<10:
		return intName("buf", n>>10) + "KiB"
	default:
		return intName("buf", n) + "B"
	}
}

func intName(prefix string, n int) string {
	digits := "0123456789"
	if n == 0 {
		return prefix + "0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{digits[n%10]}, out...)
		n /= 10
	}
	return prefix + string(out)
}

// BenchmarkFleetSweep measures fleet-scale simulator throughput: each leaf
// runs one complete open-loop fleet workload (sites x hosts topology, Poisson
// arrivals with bounded-Pareto sizes, sharded allocation, batched control
// plane) and reports simulated events per wall second — the figure of merit
// that says whether the 10k-host / 1M-job scenario fits in minutes. The '='
// leaf names keep benchjson's -GOMAXPROCS suffix stripping away from the
// shape parameters.
func BenchmarkFleetSweep(b *testing.B) {
	shapes := []struct {
		name  string
		sites int
		hosts int
		jobs  int
	}{
		{"sites=16/hosts=32/jobs=50k", 16, 32, 50_000},
		{"sites=64/hosts=64/jobs=200k", 64, 64, 200_000},
	}
	for _, sh := range shapes {
		sh := sh
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			// Rate sized to ~0.85 utilization: capacity = sites*hosts*2 slots
			// over a 10s mean job.
			rate := 0.85 * float64(sh.sites*sh.hosts*2) / 10.0
			var r *bench.FleetReport
			for i := 0; i < b.N; i++ {
				var err error
				r, err = bench.RunFleet(fleet.Config{
					Sites:        sh.sites,
					HostsPerSite: sh.hosts,
					Jobs:         sh.jobs,
					Seed:         1,
					Arrivals:     fleet.RateShape{Kind: fleet.RateConstant, Rate: rate},
					Sizes: fleet.SizeDist{Kind: fleet.DistPareto,
						Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute},
					Heartbeat: 30 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.EventsPerSec/1e6, "Mevents/sec")
			b.ReportMetric(r.JobsPerSec/1e3, "kjobs/sec")
			b.ReportMetric(r.Result.Makespan.Seconds(), "vsec-makespan")
		})
	}
}
