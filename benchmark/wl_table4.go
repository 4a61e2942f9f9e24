package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// paperProxyOverhead is the wide-area proxy overhead the paper reports for
// its knapsack run (3.5 %), the one legible Table 4 figure.
const paperProxyOverhead = 0.035

// table4 is the paper's Table 4 sweep: the sequential baseline and five
// systems, six kernels run one after another on the process-oriented
// simulator path (Procs, MPI over Nexus over simnet streams, the in-sim
// proxy). The seed goes to the kernels' RNG; the instance is the paper's
// normalized one, so every seed traverses the same tree.
type table4 struct {
	cfg      runConfig
	capacity int
	exp      *expected
}

func table4Def() workloadDef {
	return workloadDef{
		name:      "table4-cap5",
		workAlias: "nodes_per_s",
		work:      "search-tree nodes traversed (6 kernels x NormalizedTreeNodes)",
		op:        "one whole Table 4 sweep (bench.RunKnapsack)",
		make: func(cfg runConfig) (workload, error) {
			w := &table4{cfg: cfg, capacity: 5}
			if cfg.quick {
				w.capacity = 3
			}
			var err error
			w.exp, err = loadExpected(cfg)
			return w, err
		},
		probes: []probe{
			{"sim.step", probeSimStep},
			{"nexus.rsr", probeNexusRSR},
			{"nexus.buffer", probeNexusBuffer},
			{"mpi.pingpong", probeMPIPingPong},
			{"knapsack.seq", probeKnapsackSeq},
			{"cluster.testbed", probeTestbedBuild},
			{"obs.table4", probeObsTable4},
		},
	}
}

func (w *table4) config(capacity int) bench.KnapsackConfig {
	return bench.KnapsackConfig{
		Items: 50, Capacity: capacity, Workers: 1,
		Options: cluster.Options{Seed: w.cfg.seed},
	}
}

// setup warms the runtime with a sweep two capacities down (a hundredth of
// the nodes), so the timed sweep does not pay for first heap growth.
func (w *table4) setup(p *pass) error {
	_, err := bench.RunKnapsack(w.config(w.capacity - 2))
	return err
}

func (w *table4) run(p *pass) error {
	var rep *bench.KnapsackReport
	var runErr error
	p.timed(func() {
		id := p.tr.begin("bench.RunKnapsack", p.span)
		rep, runErr = bench.RunKnapsack(w.config(w.capacity))
		p.tr.end(id)
	})
	// One operation per kernel. RunKnapsack itself checks every system's
	// optimum and node count and returns an error naming the first miss.
	p.attempted += 6
	if runErr != nil {
		p.fail(6, "RunKnapsack: %v", runErr)
		return nil
	}
	nodes := knapsack.NormalizedTreeNodes(50, w.capacity)
	if rep.SeqTraversed != nodes {
		p.fail(1, "sequential baseline traversed %d nodes, want %d", rep.SeqTraversed, nodes)
	}
	p.work += 6 * float64(nodes)
	p.workSec += p.wall
	p.opsMS = append(p.opsMS, p.wall*1e3)

	overhead := rep.ProxyOverhead()
	p.set("paper_err_pct", math.Abs(overhead-paperProxyOverhead)/paperProxyOverhead*100)
	p.set("knapsack.traversed", float64(rep.Wide.TotalTraversed))
	p.set("knapsack.steals", float64(rep.Wide.MasterHandled))
	if w.exp != nil {
		if got := strconv.FormatFloat(overhead, 'g', -1, 64); got != w.exp.Table4Overhead {
			p.fail(1, "table4 proxy overhead %s, expected.json has %s", got, w.exp.Table4Overhead)
		}
		if rep.Wide.MasterHandled != w.exp.Table4Steals {
			p.fail(1, "table4 wide-area master steals %d, expected.json has %d", rep.Wide.MasterHandled, w.exp.Table4Steals)
		}
	}
	return nil
}

func (w *table4) teardown() {}

// probeSimStep times one Proc sleep/resume through Kernel.Step, the switch
// the Table 4 path makes for every message and every compute slice.
func probeSimStep(c *probeCtx) error {
	n := scaled(c.cfg, 2_000_000, 20_000)
	k := sim.New()
	k.SpawnDaemon("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	for i := 0; i < 1000; i++ {
		k.Step()
	}
	cst := measure(func() {
		for i := 0; i < n; i++ {
			k.Step()
		}
	})
	k.Shutdown()
	c.set("sim.step_ns", cst.ns/float64(n))
	c.set("sim.step_allocs", cst.mallocs/float64(n))
	return nil
}

// probeNexusRSR times a remote service request inside the simulator:
// Startpoint.Send on one host to the handler running on the other.
func probeNexusRSR(c *probeCtx) error {
	n := scaled(c.cfg, 20_000, 500)
	k, net := twoHosts(fastLink)
	var addr string
	var recvCtx *nexus.Context
	var probeErr error
	ready := sim.NewEvent(k)
	net.Node("b").SpawnDaemonOn("endpoint", func(env transport.Env) {
		ctx, err := nexus.Init(env, proxy.Config{})
		if err != nil {
			probeErr = err
			ready.Set()
			return
		}
		recvCtx = ctx
		ep := ctx.NewEndpoint()
		ep.Register(1, func(transport.Env, *nexus.Buffer) {})
		addr = ep.Address()
		ready.Set()
	})
	net.Node("a").SpawnOn("startpoint", func(env transport.Env) {
		for !ready.IsSet() {
			env.Sleep(time.Millisecond)
		}
		if probeErr != nil {
			return
		}
		ctx, err := nexus.Init(env, proxy.Config{})
		if err != nil {
			probeErr = err
			return
		}
		sp, err := ctx.Attach(env, addr)
		if err != nil {
			probeErr = err
			return
		}
		b := nexus.NewBuffer()
		for i := 0; i < n; i++ {
			b.Reset()
			b.PutInt64(int64(i))
			if err := sp.Send(env, 1, b); err != nil {
				probeErr = err
				return
			}
		}
		for recvCtx.Delivered() < int64(n) {
			env.Sleep(time.Millisecond)
		}
		_ = sp.Close(env)
		ctx.Shutdown(env)
	})
	var runErr error
	cst := measure(func() { runErr = k.Run() })
	k.Shutdown()
	if probeErr != nil {
		return probeErr
	}
	if runErr != nil {
		return runErr
	}
	c.set("nexus.rsr_ns", cst.ns/float64(n))
	c.set("nexus.rsr_allocs", cst.mallocs/float64(n))
	return nil
}

// probeNexusBuffer times packing and unpacking the fields of a typical
// control frame (every RMF and GRAM request is one such buffer).
func probeNexusBuffer(c *probeCtx) error {
	n := scaled(c.cfg, 2_000_000, 20_000)
	b := nexus.NewBuffer()
	var sink int64
	cst := measure(func() {
		for i := 0; i < n; i++ {
			b.Reset()
			b.PutInt32(2)
			b.PutString("job-123456")
			b.PutInt64(int64(i))
			b.PutBool(true)
			b.Rewind()
			op, _ := b.GetInt32()
			s, _ := b.GetString()
			v, _ := b.GetInt64()
			ok, _ := b.GetBool()
			if ok {
				sink += int64(op) + int64(len(s)) + v
			}
		}
	})
	if sink == 0 {
		return fmt.Errorf("nexus buffer round trip lost its fields")
	}
	c.set("nexus.buffer_putget_ns", cst.ns/float64(n))
	return nil
}

// probeMPIPingPong times a 64-byte MPI ping-pong inside the simulator, the
// same loop as BenchmarkMPIPingPong.
func probeMPIPingPong(c *probeCtx) error {
	n := scaled(c.cfg, 20_000, 500)
	k, net := twoHosts(fastLink)
	w := mpi.NewWorld([]mpi.Placement{
		{Name: "a", Spawn: net.Node("a").SpawnOn},
		{Name: "b", Spawn: net.Node("b").SpawnOn},
	})
	w.Launch(func(cm *mpi.Comm) error {
		payload := make([]byte, 64)
		for i := 0; i < n; i++ {
			if cm.Rank() == 0 {
				if err := cm.Send(1, 1, payload); err != nil {
					return err
				}
				if _, err := cm.Recv(1, 2); err != nil {
					return err
				}
			} else {
				if _, err := cm.Recv(0, 1); err != nil {
					return err
				}
				if err := cm.Send(0, 2, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	var runErr error
	cst := measure(func() { runErr = k.Run() })
	k.Shutdown()
	if runErr != nil {
		return runErr
	}
	if err := w.Err(); err != nil {
		return err
	}
	c.set("mpi.pingpong_ns", cst.ns/float64(n))
	c.set("mpi.pingpong_allocs", cst.mallocs/float64(n))
	return nil
}

// probeKnapsackSeq times the bare sequential traversal of the workload's
// tree: the compute floor under everything the simulator adds.
func probeKnapsackSeq(c *probeCtx) error {
	capacity := 5
	if c.cfg.quick {
		capacity = 3
	}
	in := knapsack.Normalized(50, capacity)
	var traversed int64
	cst := measure(func() { _, traversed = knapsack.SolveExhaustive(in) })
	if want := knapsack.NormalizedTreeNodes(50, capacity); traversed != want {
		return fmt.Errorf("SolveExhaustive traversed %d nodes, want %d", traversed, want)
	}
	c.set("knapsack.seq_nodes_per_s", float64(traversed)/(cst.ns/1e9))
	return nil
}

// probeTestbedBuild times building and shutting down the Figure 5 testbed,
// which every Table 4 kernel and every scenario run does once.
func probeTestbedBuild(c *probeCtx) error {
	n := scaled(c.cfg, 200, 10)
	cst := measure(func() {
		for i := 0; i < n; i++ {
			cluster.NewTestbed(cluster.Options{}).Shutdown()
		}
	})
	c.set("cluster.testbed_build_ms", cst.ns/float64(n)/1e6)
	return nil
}

// probeObsTable4 runs the wide-area proxied knapsack with and without the
// program's own observer attached: the ratio is what virtual-time tracing
// costs the host on this path.
func probeObsTable4(c *probeCtx) error {
	capacity := 4
	if c.cfg.quick {
		capacity = 3
	}
	cfg := bench.KnapsackConfig{Items: 50, Capacity: capacity, Workers: 1, Options: cluster.Options{Seed: c.cfg.seed}}
	var err error
	plain := measure(func() { _, err = bench.RunKnapsackTraced(cfg, nil) })
	if err != nil {
		return err
	}
	traced := measure(func() { _, err = bench.RunKnapsackTraced(cfg, obs.New()) })
	if err != nil {
		return err
	}
	c.set("obs.table4_overhead_pct", (traced.ns-plain.ns)/plain.ns*100)
	return nil
}
