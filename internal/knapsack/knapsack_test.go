package knapsack

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nxcluster/internal/nexus"
)

func TestNoPruningTraversesFullTree(t *testing.T) {
	for _, n := range []int{1, 4, 10, 16} {
		in := NoPruning(n)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		best, traversed := SolveExhaustive(in)
		if want := FullTreeNodes(n); traversed != want {
			t.Fatalf("n=%d traversed %d nodes, want %d (full tree)", n, traversed, want)
		}
		if best != in.TotalProfit() {
			t.Fatalf("n=%d best=%d, want all-items profit %d", n, best, in.TotalProfit())
		}
	}
}

// TestNormalizedBestMatchesSolve checks the closed form against the solver
// over every size the experiments ship (up to the paper's 50 items, capacity
// 6) and on to a capacity above the item count.
func TestNormalizedBestMatchesSolve(t *testing.T) {
	for n := 1; n <= 50; n++ {
		for cap := 0; cap <= n+1; cap++ {
			want, _ := Solve(Normalized(n, cap))
			if got := NormalizedBest(n, cap); got != want {
				t.Fatalf("NormalizedBest(%d, %d) = %d, Solve says %d", n, cap, got, want)
			}
		}
	}
}

func TestSolveMatchesBruteForceRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := Random(14, 100, seed)
		want := BruteForce(in)
		got, _ := Solve(in)
		if got != want {
			t.Fatalf("seed %d: Solve=%d brute=%d", seed, got, want)
		}
		gotEx, _ := SolveExhaustive(in)
		if gotEx != want {
			t.Fatalf("seed %d: SolveExhaustive=%d brute=%d", seed, gotEx, want)
		}
	}
}

func TestSolveMatchesBruteForceCorrelated(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := StronglyCorrelated(13, 50, seed)
		want := BruteForce(in)
		got, _ := Solve(in)
		if got != want {
			t.Fatalf("seed %d: Solve=%d brute=%d", seed, got, want)
		}
	}
}

func TestBoundPruningReducesWork(t *testing.T) {
	in := Random(18, 1000, 7)
	_, pruned := Solve(in)
	_, full := SolveExhaustive(in)
	if pruned >= full {
		t.Fatalf("bound pruning traversed %d >= exhaustive %d", pruned, full)
	}
}

func TestQuickSolverOptimality(t *testing.T) {
	prop := func(seed int64, corr bool) bool {
		var in *Instance
		if corr {
			in = StronglyCorrelated(12, 40, seed)
		} else {
			in = Random(12, 80, seed)
		}
		got, _ := Solve(in)
		return got == BruteForce(in)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStackMatchesSliceModel runs random Push/Pop/PushAll/TakeBottom
// sequences against a plain slice whose TakeBottom shifts, as the stack's
// used to: every result and the live nodes after every operation must
// agree, across compactions of the head index and across emptying.
func TestStackMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	compactions := 0
	for trial := 0; trial < 40; trial++ {
		var s Stack
		var ref []Node
		next := int32(0)
		node := func() Node { next++; return Node{Index: next, Value: int64(next) * 3, Capacity: -int64(next)} }
		for op := 0; op < 3000; op++ {
			head := s.head
			switch r := rng.Intn(10); {
			case r < 4:
				n := node()
				s.Push(n)
				ref = append(ref, n)
			case r < 6:
				got, ok := s.Pop()
				var want Node
				if len(ref) > 0 {
					want, ref = ref[len(ref)-1], ref[:len(ref)-1]
				}
				if ok != (want != Node{}) || got != want {
					t.Fatalf("trial %d op %d: Pop = %v, %v; want %v", trial, op, got, ok, want)
				}
			case r < 8:
				ns := make([]Node, rng.Intn(6))
				for i := range ns {
					ns[i] = node()
				}
				s.PushAll(ns)
				ref = append(ref, ns...)
			default:
				k := rng.Intn(7)
				got := s.TakeBottom(k)
				if k > len(ref) {
					k = len(ref)
				}
				want := append([]Node(nil), ref[:k]...)
				ref = append(ref[:0], ref[k:]...)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: TakeBottom = %v, want %v", trial, op, got, want)
				}
			}
			if s.head < head && s.Len() > 0 {
				compactions++
			}
			if !slices.Equal(s.nodes[s.head:], ref) {
				t.Fatalf("trial %d op %d: stack holds %v, want %v", trial, op, s.nodes[s.head:], ref)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no sequence compacted the stack")
	}
}

func TestEncodeDecodeNodes(t *testing.T) {
	ns := []Node{{Index: 1, Value: 100, Capacity: 50}, {Index: 30, Value: -2, Capacity: 0}}
	got, err := DecodeNodes(EncodeNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ns) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ns {
		if got[i] != ns[i] {
			t.Fatalf("node %d = %+v, want %+v", i, got[i], ns[i])
		}
	}
	if _, err := DecodeNodes([]byte{0, 0, 0}); err == nil {
		t.Fatal("truncated batch decoded")
	}
	// A count the bytes cannot hold is refused before it sizes anything:
	// -1 once panicked in make, and 2^24 allocated 384 MiB for 8 bytes.
	for _, batch := range [][]byte{{0xff, 0xff, 0xff, 0xff}, {1, 0, 0, 0, 0, 0, 0, 0}} {
		if ns, err := DecodeNodes(batch); err == nil {
			t.Fatalf("batch %x decoded to %d nodes", batch, len(ns))
		}
	}
}

// TestEncodeNodesMatchesBuffer pins EncodeNodes' bytes to the nexus.Buffer
// encoding DecodeNodes reads, and checks the slice is sized exactly.
func TestEncodeNodesMatchesBuffer(t *testing.T) {
	many := make([]Node, 37)
	for i := range many {
		many[i] = Node{Index: int32(i*7 - 3), Value: int64(i) << 40, Capacity: -int64(i) * 1e9}
	}
	for _, ns := range [][]Node{nil, {{Index: 5, Value: -1, Capacity: 1 << 62}}, many} {
		b := nexus.NewBuffer()
		b.PutInt32(int32(len(ns)))
		for _, n := range ns {
			b.PutInt32(n.Index)
			b.PutInt64(n.Value)
			b.PutInt64(n.Capacity)
		}
		got := EncodeNodes(ns)
		if !bytes.Equal(got, b.Bytes()) {
			t.Fatalf("%d nodes: EncodeNodes = %x, want %x", len(ns), got, b.Bytes())
		}
		if len(got) != cap(got) {
			t.Fatalf("%d nodes: %d bytes in a %d-byte slice", len(ns), len(got), cap(got))
		}
	}
}

// TestBranchNZeroAlloc pins the branch loop at no allocations per call once
// the stack has grown to the search's working depth.
func TestBranchNZeroAlloc(t *testing.T) {
	for _, prune := range []bool{false, true} {
		in := Normalized(50, 5) // 20.6 M nodes unpruned
		if prune {
			in = Random(100, 1000, 1) // 171 k nodes pruned
		}
		s := NewSolver(in)
		s.PruneBound = prune
		s.BranchN(10000)
		if avg := testing.AllocsPerRun(1000, func() { s.BranchN(25) }); avg != 0 {
			t.Fatalf("PruneBound=%v: BranchN(25) allocates %.1f times per call", prune, avg)
		}
		if s.Stack.Len() == 0 {
			t.Fatalf("PruneBound=%v: the search ran out before the measurement ended", prune)
		}
	}
}

func TestQuickNodeCodecRoundTrip(t *testing.T) {
	prop := func(idx int32, val, cap int64) bool {
		ns := []Node{{Index: idx, Value: val, Capacity: cap}}
		got, err := DecodeNodes(EncodeNodes(ns))
		return err == nil && len(got) == 1 && got[0] == ns[0]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	if err := (&Instance{}).Validate(); err == nil {
		t.Fatal("empty instance validated")
	}
	if err := (&Instance{Items: []Item{{1, 1}}, Capacity: -1}).Validate(); err == nil {
		t.Fatal("negative capacity validated")
	}
	if err := (&Instance{Items: []Item{{-1, 1}}, Capacity: 1}).Validate(); err == nil {
		t.Fatal("negative profit validated")
	}
}

func TestBruteForceSmall(t *testing.T) {
	in := &Instance{
		Items:    []Item{{Profit: 60, Weight: 10}, {Profit: 100, Weight: 20}, {Profit: 120, Weight: 30}},
		Capacity: 50,
	}
	if got := BruteForce(in); got != 220 {
		t.Fatalf("BruteForce = %d, want 220", got)
	}
	best, _ := Solve(in)
	if best != 220 {
		t.Fatalf("Solve = %d, want 220", best)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Interval <= 0 || p.StealUnit <= 0 || p.BackUnit <= 0 {
		t.Fatalf("DefaultParams has non-positive knobs: %+v", p)
	}
	var zero Params
	wd := zero.withDefaults()
	if wd.Interval <= 0 || wd.StealUnit <= 0 || wd.BackUnit <= 0 {
		t.Fatalf("withDefaults left non-positive knobs: %+v", wd)
	}
}
