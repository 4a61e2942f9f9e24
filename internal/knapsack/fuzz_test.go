package knapsack

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"nxcluster/internal/mpi"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
)

// TestSchedulerParameterFuzz runs the parallel solver, under Run and under
// a fault-free RunFT with the default timeouts, with randomized scheduler
// parameters, world sizes, topologies and instances, asserting the two
// invariants that must hold for every combination: exact work conservation
// (every node expanded exactly once) and optimality.
func TestSchedulerParameterFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		ranks := 2 + rng.Intn(6)
		params := Params{
			Interval:      1 + rng.Intn(200),
			StealUnit:     1 + rng.Intn(6),
			BackUnit:      1 + rng.Intn(6),
			BackThreshold: rng.Intn(3) - 1, // -1 disable, 0 auto, 1 aggressive
			MasterReserve: rng.Intn(3) - 1,
			ShareInterval: rng.Intn(3)*100 - 1, // -1 disable, or 99/199
			NodeCost:      time.Duration(rng.Intn(300)) * time.Microsecond,
		}
		var in *Instance
		var wantBest, wantNodes int64
		if rng.Intn(2) == 0 {
			n, cap := 10+rng.Intn(20), 2+rng.Intn(3)
			in = Normalized(n, cap)
			wantNodes = NormalizedTreeNodes(n, cap)
			wantBest, _ = SolveExhaustive(in)
		} else {
			in = Random(10+rng.Intn(6), 100, rng.Int63())
			wantBest, wantNodes = SolveExhaustive(in)
		}

		speeds := make([]float64, ranks)
		latencies := make([]time.Duration, ranks)
		for i := range speeds {
			speeds[i] = 0.5 + rng.Float64()*1.5
			latencies[i] = time.Duration(rng.Intn(5000)) * time.Microsecond
		}
		solvers := []struct {
			name  string
			solve func(*mpi.Comm) (*Result, error)
		}{
			{"Run", func(c *mpi.Comm) (*Result, error) { return Run(c, in, params) }},
			{"RunFT", func(c *mpi.Comm) (*Result, error) { return RunFT(c, in, FTParams{Params: params}) }},
		}
		for _, sv := range solvers {
			k := sim.New()
			net := simnet.New(k)
			net.AddRouter("sw", "")
			pls := make([]mpi.Placement, ranks)
			for i := range pls {
				name := fmt.Sprintf("n%d", i)
				net.AddHost(name, simnet.HostConfig{Speed: speeds[i]})
				net.Connect(name, "sw", simnet.LinkConfig{Latency: latencies[i], Bandwidth: 1 << 20})
				pls[i] = mpi.Placement{Name: name, Spawn: net.Node(name).SpawnOn}
			}
			w := mpi.NewWorld(pls)
			var res *Result
			w.Launch(func(c *mpi.Comm) error {
				r, err := sv.solve(c)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					res = r
				}
				return nil
			})
			if err := k.Run(); err != nil {
				t.Fatalf("trial %d %s (%+v): %v", trial, sv.name, params, err)
			}
			k.Shutdown()
			if err := w.Err(); err != nil {
				t.Fatalf("trial %d %s (%+v): %v", trial, sv.name, params, err)
			}
			if res.TotalTraversed != wantNodes {
				t.Fatalf("trial %d %s (%+v): traversed %d, want %d",
					trial, sv.name, params, res.TotalTraversed, wantNodes)
			}
			if res.Best != wantBest {
				t.Fatalf("trial %d %s (%+v): best %d, want %d", trial, sv.name, params, res.Best, wantBest)
			}
		}
	}
}

// branchRef is the one-node-at-a-time branch operation BranchN's loop
// replaced, kept as its oracle: pop a node, check it, and push its (one or
// two) children. It reports whether a node was available.
func branchRef(s *Solver) bool {
	n, ok := s.Stack.Pop()
	if !ok {
		return false
	}
	s.Traversed++
	if n.Value > s.Best {
		s.Best = n.Value
	}
	if int(n.Index) >= s.in.N() {
		return true // leaf: all items fixed
	}
	if s.PruneBound && bound(n, s.in.Items, s.boundOrder()) <= s.Best {
		return true // cannot beat the incumbent
	}
	it := s.in.Items[n.Index]
	// Child 0: item not taken. Always feasible.
	s.Stack.Push(Node{Index: n.Index + 1, Value: n.Value, Capacity: n.Capacity})
	// Child 1: item taken, if it fits.
	if it.Weight <= n.Capacity {
		s.Stack.Push(Node{Index: n.Index + 1, Value: n.Value + it.Profit, Capacity: n.Capacity - it.Weight})
	}
	return true
}

// FuzzBranchN runs BranchN and the branchRef loop side by side on one
// instance, with TakeBottom and PushAll calls between the branch calls as a
// master's serves and a slave's steals make them. After every call the two
// solvers must hold the same live stack, Best and Traversed, and BranchN
// must report the count of operations the reference ran.
func FuzzBranchN(f *testing.F) {
	f.Add(int64(1), false, false, []byte{0, 4, 8, 252, 2, 1, 7, 3, 0, 253})
	f.Add(int64(2), true, false, []byte{5, 9, 14, 6, 3, 0, 255})
	f.Add(int64(3), true, true, []byte{4, 4, 6, 10, 7, 11, 252, 254})
	f.Add(int64(4), false, true, []byte{8, 12, 16, 2, 3, 255})
	f.Fuzz(func(t *testing.T, seed int64, random, prune bool, script []byte) {
		var in *Instance
		if random {
			in = Random(4+int(uint64(seed)%10), 60, seed)
		} else {
			in = Normalized(4+int(uint64(seed)%16), 1+int(uint64(seed)/16%4))
		}
		got, want := NewSolver(in), NewSolver(in)
		got.PruneBound, want.PruneBound = prune, prune
		var held []Node // nodes TakeBottom removed, for PushAll to return
		for op, b := range script {
			arg := int(b >> 2)
			switch b & 3 {
			case 0, 1:
				k := arg % 40 // 0 and 1 included
				if arg >= 60 {
					k = math.MaxInt // more than the nodes left
				}
				ran := got.BranchN(k)
				wantRan := 0
				for wantRan < k && branchRef(want) {
					wantRan++
				}
				if ran != wantRan {
					t.Fatalf("op %d: BranchN(%d) = %d, want %d", op, k, ran, wantRan)
				}
			case 2:
				g, w := got.Stack.TakeBottom(arg%5), want.Stack.TakeBottom(arg%5)
				if !slices.Equal(g, w) {
					t.Fatalf("op %d: TakeBottom = %v, want %v", op, g, w)
				}
				held = append(held, g...)
			case 3:
				k := min(arg%5, len(held))
				got.Stack.PushAll(held[len(held)-k:])
				want.Stack.PushAll(held[len(held)-k:])
				held = held[:len(held)-k]
			}
			if !slices.Equal(got.Stack.nodes[got.Stack.head:], want.Stack.nodes[want.Stack.head:]) {
				t.Fatalf("op %d: stack %v, want %v", op, got.Stack.nodes[got.Stack.head:], want.Stack.nodes[want.Stack.head:])
			}
			if got.Best != want.Best || got.Traversed != want.Traversed {
				t.Fatalf("op %d: Best %d Traversed %d, want %d and %d", op, got.Best, got.Traversed, want.Best, want.Traversed)
			}
		}
	})
}

// FuzzDecodeNodes feeds arbitrary work batches to Stack.pushEncoded, which
// the ranks decode received batches with, onto a stack that already holds
// nodes. It must never panic and must size nothing by a count the batch's
// bytes cannot hold (20 per node). A refused batch leaves the stack as it
// was; an accepted one lands on top of the nodes already there and
// re-encodes to the bytes it read. DecodeNodes must agree on both.
func FuzzDecodeNodes(f *testing.F) {
	f.Add(EncodeNodes(nil))
	f.Add(EncodeNodes([]Node{{Index: 1, Value: 100, Capacity: 50}, {Index: 30, Value: -2}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0x10, 0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Stack
		s.PushAll([]Node{{Index: 1, Value: 2, Capacity: 3}, {Index: 4, Value: 5, Capacity: 6}, {Index: 7, Value: 8, Capacity: 9}})
		s.TakeBottom(1) // the live nodes start past the slice's head
		held := slices.Clone(s.nodes[s.head:])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.pushEncoded(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+2*uint64(len(data)) {
			t.Fatalf("a %d-byte batch made the decoder allocate %d bytes", len(data), grew)
		}
		live := s.nodes[s.head:]
		ns, derr := DecodeNodes(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("pushEncoded: %v; DecodeNodes: %v", err, derr)
		}
		if err != nil {
			if !slices.Equal(live, held) {
				t.Fatalf("a refused batch left %v on the stack, want %v", live, held)
			}
			return
		}
		if !slices.Equal(live[:len(held)], held) || !slices.Equal(live[len(held):], ns) {
			t.Fatalf("stack %v, want %v then %v", live, held, ns)
		}
		if enc := EncodeNodes(ns); !slices.Equal(enc, data[:len(enc)]) {
			t.Fatalf("%d nodes re-encode to %x, batch began %x", len(ns), enc, data[:len(enc)])
		}
	})
}
