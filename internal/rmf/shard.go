package rmf

import "fmt"

// Shard is the per-site allocator core of the fleet control plane: a fixed
// host set with per-host CPU capacities and an indexed min-heap ordered by
// fractional load (running/cpus), so Allocate and Release are O(log hosts)
// and allocation-free in steady state. It is the wire-free analogue of
// Allocator.allocate's least-loaded policy, shrunk to exactly what a site
// gateway needs at 10k-host scale: the full Allocator ranks named resources
// by health and cluster as well, registers them at run time and speaks the
// RMF protocol per request; a Shard has a fixed host set, a capacity limit,
// and is driven directly by the site's dispatch events. Both keep their
// order with the same heap code (heap.go).
//
// Fractional loads compare by integer cross-multiplication
// (load_i*cpus_j < load_j*cpus_i), so ordering is exact and deterministic —
// no float rounding, ties break on lower host index.
//
// Shard is not safe for concurrent use; fleet engines drive one shard per
// site from kernel context.
type Shard struct {
	cpus []int32 // capacity per host (immutable after construction)
	load []int32 // running jobs per host
	heap []int32 // host indexes, min-heap by fractional load
	pos  []int32 // host index -> heap position
	run  int     // total running
}

// NewUniformShard creates a shard over hosts identical hosts of cpusEach
// CPUs without materializing a capacity slice.
func NewUniformShard(hosts, cpusEach int) *Shard {
	s := &Shard{
		cpus: make([]int32, hosts),
		load: make([]int32, hosts),
		heap: make([]int32, hosts),
		pos:  make([]int32, hosts),
	}
	if cpusEach <= 0 {
		panic(fmt.Sprintf("rmf: NewUniformShard: non-positive capacity %d", cpusEach))
	}
	for i := range s.cpus {
		s.cpus[i] = int32(cpusEach)
		s.heap[i] = int32(i)
		s.pos[i] = int32(i)
	}
	return s
}

// Hosts reports the host count.
func (s *Shard) Hosts() int { return len(s.cpus) }

// Running reports the total number of held slots.
func (s *Shard) Running() int { return s.run }

// Load reports host h's current slot count.
func (s *Shard) Load(h int) int { return int(s.load[h]) }

// Cpus reports host h's capacity.
func (s *Shard) Cpus(h int) int { return int(s.cpus[h]) }

// Allocate claims one CPU slot on the least-fractionally-loaded host and
// returns its index. ok is false when every host is saturated — the caller
// queues the job and retries on the next Release.
func (s *Shard) Allocate() (host int, ok bool) {
	h := s.heap[0]
	if s.load[h] >= s.cpus[h] {
		return -1, false // heap min is saturated => all hosts are
	}
	s.load[h]++
	s.run++
	heapDown(s, s.heap, s.pos, 0)
	return int(h), true
}

// Release returns one slot on host h, restoring heap order.
func (s *Shard) Release(h int) {
	if s.load[h] <= 0 {
		panic(fmt.Sprintf("rmf: Shard.Release(%d): host has no held slots", h))
	}
	s.load[h]--
	s.run--
	heapUp(s, s.heap, s.pos, int(s.pos[h]))
}

// before orders hosts by fractional load with exact integer
// cross-multiplication; ties break on lower host index for determinism.
func (s *Shard) before(a, b int32) bool {
	la, lb := int64(s.load[a])*int64(s.cpus[b]), int64(s.load[b])*int64(s.cpus[a])
	if la != lb {
		return la < lb
	}
	return a < b
}
