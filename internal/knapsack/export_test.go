package knapsack

import "math/rand"

// TotalProfit sums all profits.
func (in *Instance) TotalProfit() int64 {
	var s int64
	for _, it := range in.Items {
		s += it.Profit
	}
	return s
}

// Pop removes and returns the most recent node. The solver pops inside
// BranchN's loop; the stack model test and the one-node-at-a-time reference
// pop through this.
func (s *Stack) Pop() (Node, bool) {
	top := len(s.nodes) - 1
	if top < s.head {
		return Node{}, false
	}
	n := s.nodes[top]
	s.nodes = s.nodes[:top]
	return n, true
}

// TakeBottom removes and returns up to k nodes from the bottom of the stack,
// as a serve or a share-back takes them.
func (s *Stack) TakeBottom(k int) []Node {
	return s.takeBottom(make([]Node, 0, min(k, s.Len())), k)
}

// EncodeNodes serializes a work batch, as the ranks append one to their
// send scratch, into one slice sized up front.
func EncodeNodes(ns []Node) []byte {
	return appendNodes(make([]byte, 0, 4+20*len(ns)), ns)
}

// DecodeNodes parses a work batch, as the ranks decode one onto their stack.
func DecodeNodes(data []byte) ([]Node, error) {
	var s Stack
	if err := s.pushEncoded(data); err != nil {
		return nil, err
	}
	return s.nodes, nil
}

// NoPruning builds the paper's normalized workload: input data chosen so
// that no branches are pruned and the entire 2^(n+1)-1 node search space is
// traced ("in order to evaluate the performance characteristics of the
// cluster system clear and normalize the problem"). Every item fits
// regardless of choices (weights sum to at most the capacity), so the
// capacity check never cuts a subtree.
func NoPruning(n int) *Instance {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Profit: int64(i%7 + 1), Weight: 1}
	}
	return &Instance{Items: items, Capacity: int64(n)}
}

// FullTreeNodes returns the node count a no-pruning instance of n items
// traverses: the full binary tree with n+1 levels.
func FullTreeNodes(n int) int64 { return (int64(1) << (n + 1)) - 1 }

// StronglyCorrelated builds a strongly correlated instance (profit = weight
// + maxCoeff/10), the hard family from Martello & Toth.
func StronglyCorrelated(n int, maxCoeff int64, seed int64) *Instance {
	r := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	var wsum int64
	for i := range items {
		w := r.Int63n(maxCoeff) + 1
		items[i] = Item{Profit: w + maxCoeff/10, Weight: w}
		wsum += w
	}
	return &Instance{Items: items, Capacity: wsum / 2}
}

// BruteForce computes the optimal profit by exhaustive enumeration; usable
// only for small n, as the test oracle.
func BruteForce(in *Instance) int64 {
	n := in.N()
	if n > 24 {
		panic("knapsack: BruteForce limited to n <= 24")
	}
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var p, w int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p += in.Items[i].Profit
				w += in.Items[i].Weight
			}
		}
		if w <= in.Capacity && p > best {
			best = p
		}
	}
	return best
}
