package mpi

import (
	"encoding/binary"
	"fmt"
)

// Op selects a reduction operator.
type Op int

// Reduction operators over int64 values.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func (o Op) applyInt(a, b int64) int64 {
	switch o {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Barrier blocks until every rank has entered it. Rank 0 gathers arrival
// notifications and releases the others; two message waves, as in early
// MPICH central-counter barriers.
func (c *Comm) Barrier() error {
	if c.Size() == 1 {
		return nil
	}
	if c.rank == 0 {
		// Receive from each specific source: per-source FIFO matching keeps
		// back-to-back barriers from stealing each other's arrivals.
		for i := 1; i < c.Size(); i++ {
			if _, _, err := c.take(i, tagBarrier, -1); err != nil {
				return err
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.send(i, tagBarrierDone, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tagBarrier, nil); err != nil {
		return err
	}
	_, _, err := c.take(0, tagBarrierDone, -1)
	return err
}

// Bcast distributes root's buffer to every rank and returns it. Non-root
// callers may pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	if c.Size() == 1 {
		return data, nil
	}
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.send(i, tagBcast, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	m, _, err := c.take(root, tagBcast, -1)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// ReduceInt64 combines each rank's value with op at root; only root receives
// the result (other ranks get the zero value).
func (c *Comm) ReduceInt64(root int, v int64, op Op) (int64, error) {
	if c.rank == root {
		acc := v
		// Per-source receives: see Barrier for why AnySource would be wrong.
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			m, _, err := c.take(i, tagReduce, -1)
			if err != nil {
				return 0, err
			}
			acc = op.applyInt(acc, int64(binary.BigEndian.Uint64(m.Data)))
		}
		return acc, nil
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return 0, c.send(root, tagReduce, buf[:])
}

// AllreduceInt64 combines each rank's value with op and returns the result
// on every rank.
func (c *Comm) AllreduceInt64(v int64, op Op) (int64, error) {
	acc, err := c.ReduceInt64(0, v, op)
	if err != nil {
		return 0, err
	}
	var buf [8]byte
	if c.rank == 0 {
		binary.BigEndian.PutUint64(buf[:], uint64(acc))
	}
	out, err := c.Bcast(0, buf[:])
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(out)), nil
}

// Gather collects each rank's buffer at root in rank order; only root gets
// the slices (nil elsewhere).
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if c.rank == root {
		out := make([][]byte, c.Size())
		out[root] = data
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			m, _, err := c.take(i, tagGather, -1)
			if err != nil {
				return nil, err
			}
			out[i] = m.Data
		}
		return out, nil
	}
	return nil, c.send(root, tagGather, data)
}
