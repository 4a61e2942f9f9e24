package rmf

import "fmt"

// NewShard creates a shard over len(cpus) hosts with the given per-host CPU
// capacities. Every capacity must be positive.
func NewShard(cpus []int32) *Shard {
	s := &Shard{
		cpus: make([]int32, len(cpus)),
		load: make([]int32, len(cpus)),
		heap: make([]int32, len(cpus)),
		pos:  make([]int32, len(cpus)),
	}
	for i, c := range cpus {
		if c <= 0 {
			panic(fmt.Sprintf("rmf: NewShard: host %d has non-positive capacity %d", i, c))
		}
		s.cpus[i] = c
		s.heap[i] = int32(i)
		s.pos[i] = int32(i)
	}
	return s
}

// Free reports the total free slots across the shard.
func (s *Shard) Free() int {
	total := 0
	for _, c := range s.cpus {
		total += int(c)
	}
	return total - s.run
}
