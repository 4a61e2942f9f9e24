package rmf

// ranking is what the indexed-heap mechanics below ask of the structure they
// keep in order: a strict total order over the ids it holds.
type ranking interface {
	// before reports whether id a is picked ahead of id b.
	before(a, b int32) bool
}

// An indexed binary min-heap is two slices: heap holds ids in heap order and
// pos[id] is where id sits in heap, so an id whose key changed is repaired in
// O(log n) from its own position. Shard (one heap, fixed ids) and Allocator
// (one heap per cluster over one shared pos) both keep theirs with the two
// functions below, which move the id through a hole rather than by swaps and
// allocate nothing.

// heapUp restores order after the id at heap[i] moved toward the front.
func heapUp(r ranking, heap, pos []int32, i int) {
	id := heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !r.before(id, heap[parent]) {
			break
		}
		heap[i] = heap[parent]
		pos[heap[i]] = int32(i)
		i = parent
	}
	heap[i] = id
	pos[id] = int32(i)
}

// heapDown restores order after the id at heap[i] moved toward the back.
func heapDown(r ranking, heap, pos []int32, i int) {
	id := heap[i]
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if c+1 < len(heap) && r.before(heap[c+1], heap[c]) {
			c++
		}
		if !r.before(heap[c], id) {
			break
		}
		heap[i] = heap[c]
		pos[heap[i]] = int32(i)
		i = c
	}
	heap[i] = id
	pos[id] = int32(i)
}
