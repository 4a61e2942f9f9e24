package knapsack

import (
	"encoding/binary"
	"errors"
	"time"

	"nxcluster/internal/mpi"
	"nxcluster/internal/nexus"
)

// This file is the fault-tolerant layer of the self-scheduling
// branch-and-bound. Run has fail-stop semantics: one lost slave and the
// master waits forever. RunFT runs the same master and slave loops
// (parallel.go) with bounded waits, an outstanding-work ledger on the master
// and sequence-numbered steals on the slaves, so the search returns the
// exact optimum even when slaves die mid-batch:
//
//   - every steal request carries a sequence number; a slave only
//     increments it after it has fully expanded the previous batch, so a
//     steal with sequence n+1 is the slave's proof that batch n is done;
//   - the master remembers the one batch it served per slave (the ledger);
//     when a slave goes silent past SlaveTimeout the master reclaims that
//     batch onto its own stack and re-expands it itself;
//   - retried steals reuse the same sequence number, so the master can tell
//     "the reply got lost, resend it" from "new work request" and never
//     drops a batch that was served but not delivered.
//
// Because the objective is a max over node values, re-expanding a subtree a
// second time cannot change the optimum — recovery is idempotent where it
// matters. Traversal counts, by contrast, are approximate under faults: a
// dead slave's nodes since its last snapshot are unreported, and reclaimed
// batches are counted again by whoever re-expands them.
//
// No collectives run after the startup barrier: results travel as snapshots
// piggybacked on the protocol messages, so a crash cannot hang a reduction.

// ErrOrphaned is returned by a slave that lost its master: its steal
// requests went unanswered past the retry budget, or the master was gone by
// the time it asked. The rank's partial work has already been (or will be)
// re-expanded elsewhere, so an orphaned slave is a casualty report, not a
// correctness problem.
var ErrOrphaned = errors.New("knapsack: slave orphaned (master unreachable)")

// FTParams extends Params with the failure-detection knobs.
type FTParams struct {
	Params
	// SlaveTimeout is how long a silent slave may stay silent (while the
	// master is starved for work) before its outstanding batch is reclaimed
	// (default 2s). Too short merely wastes work — a false death re-expands
	// a batch twice — it never loses results.
	SlaveTimeout time.Duration
	// StealTimeout is how long a slave waits for a work reply before
	// resending its steal request with the same sequence number (default 1s).
	StealTimeout time.Duration
	// StealRetries is how many resends a slave attempts before concluding it
	// is orphaned (default 5).
	StealRetries int
	// HeartbeatEvery, when nonzero, makes each slave send a lightweight
	// snapshot (an empty send-back) whenever it has computed that long
	// without otherwise talking to the master — and lets the master reclaim
	// a slave on ITS OWN silence exceeding SlaveTimeout, rather than only on
	// total silence from everyone. Without heartbeats a computing slave and a
	// dead one are indistinguishable, so the master's conservative detector
	// waits for the whole network to go quiet; under gray failures (a slow
	// host crashing with a batch outstanding while starving peers keep
	// resending steals) that quiet never comes and the batch is stuck until
	// every peer has given up. Zero disables both sides.
	//
	// Beats are sent between expansion intervals, so the effective beat
	// granularity is Interval x NodeCost: keep that product (and
	// HeartbeatEvery itself) well under SlaveTimeout, or slaves get falsely
	// reclaimed mid-batch and their work re-expanded — still exact, but
	// wasteful.
	HeartbeatEvery time.Duration
}

func (p FTParams) withFTDefaults() FTParams {
	if p.SlaveTimeout <= 0 {
		p.SlaveTimeout = 2 * time.Second
	}
	if p.StealTimeout <= 0 {
		p.StealTimeout = time.Second
	}
	if p.StealRetries <= 0 {
		p.StealRetries = 5
	}
	return p
}

// ftSnapshot is a slave's running totals, piggybacked on every protocol
// message so the master always holds a recent view of each slave's
// contribution — including slaves that die before the final collection.
type ftSnapshot struct {
	best      int64
	traversed int64
	sentBack  int64
	steals    int64
}

// appendSnapshot appends s as nexus.Buffer's PutInt64 writes four values.
func appendSnapshot(b []byte, s ftSnapshot) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(s.best))
	b = binary.BigEndian.AppendUint64(b, uint64(s.traversed))
	b = binary.BigEndian.AppendUint64(b, uint64(s.sentBack))
	return binary.BigEndian.AppendUint64(b, uint64(s.steals))
}

func getSnapshot(b *nexus.Buffer) (ftSnapshot, error) {
	var s ftSnapshot
	var err error
	if s.best, err = b.GetInt64(); err != nil {
		return s, err
	}
	if s.traversed, err = b.GetInt64(); err != nil {
		return s, err
	}
	if s.sentBack, err = b.GetInt64(); err != nil {
		return s, err
	}
	s.steals, err = b.GetInt64()
	return s, err
}

// encode frames one protocol message from this rank into its send scratch,
// which the next encode reuses (mpi's Send has copied it by then). Under Run
// a message is its bare node batch (appendNodes), and a steal carries
// nothing. Under RunFT it leads with the steal sequence (steal, work), then
// the sender's snapshot (steal, back, done), then the nodes (work, back) as
// one byte string, each as nexus.Buffer's Put methods write it.
func (r *rank) encode(tag int, seq int64, ns []Node) []byte {
	if !r.ft && tag == tagSteal {
		return nil
	}
	b := r.out[:0]
	if r.ft {
		if tag == tagSteal || tag == tagWork {
			b = binary.BigEndian.AppendUint64(b, uint64(seq))
		}
		if tag != tagWork {
			b = appendSnapshot(b, r.snapshot())
		}
		if tag == tagWork || tag == tagBack {
			b = binary.BigEndian.AppendUint32(b, uint32(4+20*len(ns)))
		}
	}
	if tag == tagWork || tag == tagBack {
		b = appendNodes(b, ns)
	}
	r.out = b
	return b
}

// decode parses what encode framed: the steal sequence (seq when the wire
// carries none, as under Run), the snapshot and the encoded nodes, which
// alias data (Stack.pushEncoded takes them).
func (r *rank) decode(tag int, data []byte, seq int64) (int64, ftSnapshot, []byte, error) {
	var snap ftSnapshot
	if !r.ft {
		if tag == tagSteal {
			return seq, snap, nil, nil
		}
		return seq, snap, data, nil
	}
	b := nexus.FromBytes(data)
	var err error
	if tag == tagSteal || tag == tagWork {
		if seq, err = b.GetInt64(); err != nil {
			return seq, snap, nil, err
		}
	}
	if tag != tagWork {
		if snap, err = getSnapshot(b); err != nil {
			return seq, snap, nil, err
		}
	}
	if tag != tagWork && tag != tagBack {
		return seq, snap, nil, nil
	}
	raw, err := b.GetBytes()
	return seq, snap, raw, err
}

// RunFT executes the fault-tolerant parallel branch-and-bound. Rank 0 is
// the master and must survive; slave ranks may crash at any point after the
// startup barrier without affecting the optimum. The Result (Best, Stats,
// MasterHandled, Elapsed) is valid on rank 0 only — there is no final
// collective to distribute it, by design.
func RunFT(c *mpi.Comm, in *Instance, p FTParams) (*Result, error) {
	return run(c, in, p.withFTDefaults(), true)
}

// slaveState is the master's ledger entry for one slave. Under Run every
// steal is a new request and no slave is written off, so an outstanding
// batch is never resent or reclaimed.
type slaveState struct {
	alive     bool
	pending   bool // a steal request is queued
	lastHeard time.Duration
	lastSteal int64 // highest steal sequence received
	served    int64 // steal sequence the outstanding batch answers
	// outstanding is the one batch served but not yet proven consumed. Its
	// array is the slave's batch buffer: a batch proven consumed or
	// reclaimed is dropped by truncation, and the next serve refills it.
	outstanding []Node
	snap        ftSnapshot
}

// collectDone is RunFT's final collection on the master: each surviving
// slave's Done report, where one arrives, replaces its last piggybacked
// snapshot. Failures are tolerated: the optimum is already exact.
func (r *rank) collectDone(slaves []slaveState, handled int64) (*Result, error) {
	c := r.c
	for s := 1; s < len(slaves); s++ {
		if !slaves[s].alive {
			continue
		}
		m, ok, err := c.RecvTimeout(s, tagDone, r.p.SlaveTimeout)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if _, snap, _, err := r.decode(tagDone, m.Data, 0); err == nil {
			slaves[s].snap = snap
		}
	}
	res := &Result{
		Best:           r.s.Best,
		Elapsed:        c.Env().Now() - r.start,
		MasterHandled:  handled,
		Stats:          []RankStats{r.st},
		TotalTraversed: r.st.Traversed,
	}
	for s := 1; s < len(slaves); s++ {
		snap := slaves[s].snap
		if snap.best > res.Best {
			res.Best = snap.best
		}
		res.Stats = append(res.Stats, RankStats{
			Rank: s, Name: c.Name(s),
			Steals: snap.steals, Traversed: snap.traversed, SentBack: snap.sentBack,
		})
		res.TotalTraversed += snap.traversed
	}
	return res, nil
}

// snapshot is this slave's running totals.
func (r *rank) snapshot() ftSnapshot {
	return ftSnapshot{best: r.s.Best, traversed: r.s.Traversed, sentBack: r.st.SentBack, steals: r.st.Steals}
}
