package mpi

import "time"

// This file holds the failure-detection primitives the fault-tolerant
// application layer builds on. Plain MPI semantics are fail-stop: a lost
// rank hangs its peers forever. RecvTimeout bounds the wait so a master can
// notice a dead slave, and RankErrs exposes per-rank outcomes so a harness
// can distinguish "crashed mid-run" (nil: the rank never returned) from an
// application error.

// RecvTimeout waits up to d for a message matching (src, tag), with the
// same wildcard semantics as Recv (AnyTag matches user tags only); d < 0
// waits for ever. It returns ok=false when the wait times out; non-matching
// messages received while waiting are queued for later Recv calls, exactly
// as in Recv.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Message, bool, error) {
	if tag < 0 && tag != AnyTag {
		return Message{}, false, ErrInvalidTag
	}
	return c.take(src, tag, d)
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
