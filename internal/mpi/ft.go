package mpi

import (
	"errors"
	"time"
)

// This file holds the failure-detection primitives the fault-tolerant
// application layer builds on. Plain MPI semantics are fail-stop: a lost
// rank hangs its peers forever. RecvTimeout bounds the wait so a master can
// notice a dead slave, and RankErrs exposes per-rank outcomes so a harness
// can distinguish "crashed mid-run" (nil: the rank never returned) from an
// application error.

// RecvTimeout waits up to d for a message matching (src, tag), with the
// same wildcard semantics as Recv (AnyTag matches user tags only). It
// returns ok=false when the wait times out; non-matching messages received
// while waiting are queued for later Recv calls, exactly as in Recv.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Message, bool, error) {
	if tag < 0 && tag != AnyTag {
		return Message{}, false, ErrInvalidTag
	}
	matches := func(m Message) bool {
		if tag == AnyTag {
			return m.Tag >= 0 && (src == AnySource || m.Src == src)
		}
		return match(m, src, tag)
	}
	for i, m := range c.pending {
		if matches(m) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return m, true, nil
		}
	}
	deadline := c.env.Now() + d
	for {
		remaining := deadline - c.env.Now()
		if remaining <= 0 {
			return Message{}, false, nil
		}
		m, ok, timedOut := c.inbox.GetTimeout(c.env, remaining)
		if timedOut {
			return Message{}, false, nil
		}
		if !ok {
			return Message{}, false, errors.New("mpi: inbox closed")
		}
		if matches(m) {
			return m, true, nil
		}
		c.pending = append(c.pending, m)
	}
}

// RankErrs returns every rank's return value, indexed by rank. A rank whose
// process was killed mid-run (host crash in the simulator) never returns,
// so its slot stays nil — use it together with application-level evidence
// (e.g. a master's view of which slaves went silent) rather than alone.
func (w *World) RankErrs() []error {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]error, len(w.errs))
	copy(out, w.errs)
	return out
}
