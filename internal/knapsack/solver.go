package knapsack

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"nxcluster/internal/nexus"
)

// Node is one search-tree node, exactly the paper's representation: "each
// node of a search tree is represented by a set of index, value, and
// capacity", where index is the first item not yet fixed, value the profit
// of items fixed to 1, and capacity the remaining weight budget.
type Node struct {
	Index    int32
	Value    int64
	Capacity int64
}

// Stack is the LIFO the search tree lives on; nodes are pushed by the branch
// operation and popped for expansion. takeBottom removes from the other end,
// so the live nodes are nodes[head:]: taking from the bottom advances head
// instead of shifting the stack, and the dead prefix is compacted away once
// it is half the slice, as the kernel's FIFOs do.
type Stack struct {
	nodes []Node
	head  int
}

// Push adds a node.
func (s *Stack) Push(n Node) {
	if len(s.nodes) == cap(s.nodes) && s.head > 0 {
		s.compact()
	}
	s.nodes = append(s.nodes, n)
}

// takeBottom removes up to k nodes from the bottom of the stack and appends
// them to dst: the oldest, shallowest nodes, whose subtrees are the largest.
// This is what a slave ships back to the master for redistribution —
// returning coarse work keeps the master able to feed other processors
// while the slave retains the deep nodes it is actively expanding — and
// what the master serves steal requests from. It costs O(k), amortized, and
// allocates nothing once dst, a batch buffer its caller reuses, has grown.
func (s *Stack) takeBottom(dst []Node, k int) []Node {
	if n := s.Len(); k > n {
		k = n
	}
	dst = append(dst, s.nodes[s.head:s.head+k]...)
	s.head += k
	switch {
	case s.head == len(s.nodes):
		s.nodes, s.head = s.nodes[:0], 0
	case s.head >= 64 && s.head*2 >= len(s.nodes):
		s.compact()
	}
	return dst
}

// reserve makes room for n more nodes without growing the slice.
func (s *Stack) reserve(n int) {
	if cap(s.nodes)-len(s.nodes) < n && s.head > 0 {
		s.compact()
	}
	s.nodes = slices.Grow(s.nodes, n)
}

// compact moves the live nodes to the front of the slice, in order.
func (s *Stack) compact() {
	n := copy(s.nodes, s.nodes[s.head:])
	s.nodes, s.head = s.nodes[:n], 0
}

// PushAll pushes nodes in order.
func (s *Stack) PushAll(ns []Node) {
	if len(s.nodes)+len(ns) > cap(s.nodes) && s.head > 0 {
		s.compact()
	}
	s.nodes = append(s.nodes, ns...)
}

// Len reports the stack depth.
func (s *Stack) Len() int { return len(s.nodes) - s.head }

// Solver holds the state of a branch-and-bound search over one instance.
type Solver struct {
	in *Instance
	// PruneBound enables fractional-relaxation bound pruning. The paper's
	// normalized experiments run with it off so the entire space is traced;
	// real solves want it on.
	PruneBound bool

	Stack     Stack
	Best      int64
	Traversed int64 // nodes popped ("the number of nodes which is traversed")

	// densityOrder lists item indices by decreasing profit density; the
	// fractional-relaxation bound must fill in this order to be a valid
	// upper bound.
	densityOrder []int
}

// NewSolver prepares a solver with the root node pushed, as the paper's
// master does.
func NewSolver(in *Instance) *Solver {
	s := &Solver{in: in, Best: -1}
	s.Stack.Push(Node{Index: 0, Value: 0, Capacity: in.Capacity})
	return s
}

// NewWorker prepares a solver with an empty stack (a slave steals its work).
func NewWorker(in *Instance) *Solver {
	return &Solver{in: in, Best: -1}
}

// boundOrder returns densityOrder, computing it on first use.
func (s *Solver) boundOrder() []int {
	if s.densityOrder != nil {
		return s.densityOrder
	}
	s.densityOrder = make([]int, s.in.N())
	for i := range s.densityOrder {
		s.densityOrder[i] = i
	}
	items := s.in.Items
	sort.SliceStable(s.densityOrder, func(a, b int) bool {
		ia, ib := items[s.densityOrder[a]], items[s.densityOrder[b]]
		// Zero-weight items have infinite density.
		if ia.Weight == 0 || ib.Weight == 0 {
			return ib.Weight != 0
		}
		return ia.Profit*ib.Weight > ib.Profit*ia.Weight
	})
	return s.densityOrder
}

// bound computes the fractional-relaxation upper bound for a node: current
// value plus a greedy fractional fill of the remaining capacity with the
// not-yet-fixed items, taken in order (decreasing profit density).
func bound(n Node, items []Item, order []int) int64 {
	b := n.Value
	cap := n.Capacity
	for _, i := range order {
		if i < int(n.Index) {
			continue // already fixed by this node
		}
		it := items[i]
		if it.Weight <= cap {
			b += it.Profit
			cap -= it.Weight
		} else {
			b += it.Profit * cap / it.Weight
			// Fractional fill exhausts the capacity in LP-relaxation terms;
			// rounding down keeps it a valid integer bound.
			break
		}
	}
	return b
}

// BranchN performs up to k branch operations ("the master repeats the branch
// operation interval times") and returns how many ran before the stack
// emptied. Each operation is the paper's three steps: pop a node, check it,
// and push its (one or two) children. The loop holds the node it expands in
// locals: it pushes only the "not taken" child and carries on with the
// "taken" (or only) child, popping only at a leaf or a pruned node. After
// the k-th operation it pushes the held node back, so the stack, Best and
// Traversed are exactly what k single pop-and-push operations leave.
func (s *Solver) BranchN(k int) int {
	if k <= 0 || s.Stack.Len() == 0 {
		return 0
	}
	items, best := s.in.Items, s.Best
	var order []int // the bound's fill order; nil when pruning is off
	if s.PruneBound {
		order = s.boundOrder()
	}
	// The nodes one call has pushed and not yet popped have strictly
	// increasing indexes in [1, len(items)], so they and the held node put
	// back take at most len(items)+1 slots, one of them freed by the first
	// pop. With len(items) reserved a push never grows the slice, and the
	// loop keeps the stack's top in a local too.
	s.Stack.reserve(len(items))
	buf, head := s.Stack.nodes[:cap(s.Stack.nodes)], s.Stack.head
	top := len(s.Stack.nodes) - 1
	nd, left := buf[top], k
	for {
		left--
		if nd.Value > best {
			best = nd.Value
		}
		// A leaf has every item fixed; with pruning on, a node whose bound
		// cannot beat the incumbent is a leaf too.
		if int(nd.Index) >= len(items) || order != nil && bound(nd, items, order) <= best {
			if left == 0 || top <= head {
				break
			}
			top--
			nd = buf[top]
			continue
		}
		it := items[nd.Index]
		nd.Index++
		// Child 0, item not taken, is always feasible; child 1, item
		// taken, exists if the item fits and is the one held.
		if it.Weight <= nd.Capacity {
			buf[top] = nd
			top++
			nd.Value += it.Profit
			nd.Capacity -= it.Weight
		}
		if left == 0 {
			buf[top] = nd
			top++
			break
		}
	}
	s.Stack.nodes = buf[:top]
	s.Best = best
	s.Traversed += int64(k - left)
	return k - left
}

// Run exhausts the stack and returns the best value found.
func (s *Solver) Run() int64 {
	s.BranchN(math.MaxInt)
	return s.Best
}

// Solve runs a sequential branch-and-bound with bound pruning enabled and
// returns (optimum, nodes traversed).
func Solve(in *Instance) (int64, int64) {
	s := NewSolver(in)
	s.PruneBound = true
	best := s.Run()
	return best, s.Traversed
}

// SolveExhaustive runs the paper's normalized sequential search (no bound
// pruning) and returns (optimum, nodes traversed).
func SolveExhaustive(in *Instance) (int64, int64) {
	s := NewSolver(in)
	best := s.Run()
	return best, s.Traversed
}

// appendNodes appends a work batch's encoding to b: a big-endian int32
// count, then each node's int32 index and int64 value and capacity, the
// bytes nexus.Buffer's PutInt32/PutInt64 would write.
func appendNodes(b []byte, ns []Node) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ns)))
	for _, n := range ns {
		b = binary.BigEndian.AppendUint32(b, uint32(n.Index))
		b = binary.BigEndian.AppendUint64(b, uint64(n.Value))
		b = binary.BigEndian.AppendUint64(b, uint64(n.Capacity))
	}
	return b
}

// pushEncoded decodes a work batch (appendNodes) straight onto the stack,
// in order. A batch that does not decode leaves the stack as it was, and a
// count the batch's bytes cannot hold (20 per node) is refused before
// anything is sized by it.
func (s *Stack) pushEncoded(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("%w: need 4, have %d", nexus.ErrBufferShort, len(data))
	}
	k, rest := int32(binary.BigEndian.Uint32(data)), data[4:]
	if k < 0 || int(k) > len(rest)/20 {
		return fmt.Errorf("knapsack: batch claims %d nodes in %d bytes", k, len(rest))
	}
	s.reserve(int(k))
	for ; k > 0; k-- {
		s.nodes = append(s.nodes, Node{
			Index:    int32(binary.BigEndian.Uint32(rest)),
			Value:    int64(binary.BigEndian.Uint64(rest[4:])),
			Capacity: int64(binary.BigEndian.Uint64(rest[12:])),
		})
		rest = rest[20:]
	}
	return nil
}
