// Package knapsack implements the paper's benchmark workload: the 0-1
// knapsack problem solved by branch and bound, both sequentially and in the
// master/slave self-scheduling parallel formulation of section 4.3 (dynamic
// load balancing by work stealing with the interval, stealunit and backunit
// parameters).
package knapsack

import (
	"errors"
	"fmt"
	"math/rand"
)

// Item is one knapsack item.
type Item struct {
	// Profit is the value gained by taking the item.
	Profit int64
	// Weight is the capacity consumed by taking the item.
	Weight int64
}

// Instance is a 0-1 knapsack problem.
type Instance struct {
	// Items to choose from; index order is the branching order.
	Items []Item
	// Capacity is the weight budget.
	Capacity int64
}

// N returns the item count.
func (in *Instance) N() int { return len(in.Items) }

// Validate checks basic sanity.
func (in *Instance) Validate() error {
	if len(in.Items) == 0 {
		return errors.New("knapsack: no items")
	}
	if in.Capacity < 0 {
		return errors.New("knapsack: negative capacity")
	}
	for i, it := range in.Items {
		if it.Weight < 0 || it.Profit < 0 {
			return fmt.Errorf("knapsack: item %d has negative weight or profit", i)
		}
	}
	return nil
}

// Normalized builds the paper's experiment workload: n items (the paper
// uses 50) of unit weight with capacity cap. Bound pruning stays off, so the
// entire feasible space — every prefix fixing at most cap items to 1 — is
// traced, giving a depth-n tree whose size is controlled by cap (cap 4 is
// ~2.6 million nodes at n=50, cap 5 ~20.6 million, cap 6 ~136 million; the
// paper's runs traverse billions). Deep trees with capacity-graded subtree
// sizes are what make the paper's top-of-stack stealing balance well.
func Normalized(n, cap int) *Instance {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Profit: int64(i%normalizedProfits + 1), Weight: 1}
	}
	return &Instance{Items: items, Capacity: int64(cap)}
}

// normalizedProfits is the period of Normalized's profits, which cycle
// 1, 2, ..., normalizedProfits.
const normalizedProfits = 7

// NormalizedBest returns Normalized(n, cap)'s optimum. Every item weighs 1,
// so it is the sum of the cap largest profits: take profit p's items, from
// the largest p down, until cap are taken.
func NormalizedBest(n, cap int) int64 {
	var best int64
	for p := normalizedProfits; p >= 1 && cap > 0; p-- {
		k := n / normalizedProfits // items i < n with i%normalizedProfits == p-1
		if p-1 < n%normalizedProfits {
			k++
		}
		k = min(k, cap)
		best += int64(p * k)
		cap -= k
	}
	return best
}

// NormalizedTreeNodes returns the exact node count Normalized(n, cap)
// traverses: the number of feasible decision prefixes.
func NormalizedTreeNodes(n, cap int) int64 {
	// nodes = sum over depth d of the count of length-d binary strings with
	// at most cap ones; computed with a rolling binomial row.
	var total int64
	binom := make([]int64, n+1)
	binom[0] = 1
	for d := 0; d <= n; d++ {
		for j := 0; j <= cap && j <= d; j++ {
			total += binom[j]
		}
		if d == n {
			break
		}
		// Advance row d -> d+1 in place (right to left).
		for j := d + 1; j > 0; j-- {
			binom[j] += binom[j-1]
		}
	}
	return total
}

// Random builds an uncorrelated random instance: weights and profits in
// [1, maxCoeff], capacity = half the total weight — the classic generator
// from Martello & Toth's KNAPSACK PROBLEMS (the paper's reference [10]).
func Random(n int, maxCoeff int64, seed int64) *Instance {
	r := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	var wsum int64
	for i := range items {
		items[i] = Item{
			Profit: r.Int63n(maxCoeff) + 1,
			Weight: r.Int63n(maxCoeff) + 1,
		}
		wsum += items[i].Weight
	}
	return &Instance{Items: items, Capacity: wsum / 2}
}
