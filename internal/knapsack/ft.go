package knapsack

import (
	"errors"
	"fmt"
	"time"

	"nxcluster/internal/mpi"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// This file is the fault-tolerant variant of the self-scheduling
// branch-and-bound. The plain scheduler (parallel.go) has fail-stop
// semantics: one lost slave and the master waits forever. RunFT keeps the
// exact same work-stealing structure but adds an outstanding-work ledger on
// the master and sequence-numbered steals on the slaves, so the search
// returns the exact optimum even when slaves die mid-batch:
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

// Message tags of the fault-tolerant protocol (disjoint from parallel.go's).
const (
	tagFTSteal = 11 // slave -> master: [seq, snapshot]
	tagFTWork  = 12 // master -> slave: [seq, nodes]
	tagFTBack  = 13 // slave -> master: [snapshot, nodes]
	tagFTTerm  = 14 // master -> slave: search finished
	tagFTDone  = 15 // slave -> master: [snapshot] final
)

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
	// every peer has given up. Zero disables both sides and preserves the
	// original behavior bit for bit.
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

func putSnapshot(b *nexus.Buffer, s ftSnapshot) {
	b.PutInt64(s.best)
	b.PutInt64(s.traversed)
	b.PutInt64(s.sentBack)
	b.PutInt64(s.steals)
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

func encodeFTSteal(seq int64, s ftSnapshot) []byte {
	b := nexus.NewBuffer()
	b.PutInt64(seq)
	putSnapshot(b, s)
	return b.Bytes()
}

func decodeFTSteal(data []byte) (int64, ftSnapshot, error) {
	b := nexus.FromBytes(data)
	seq, err := b.GetInt64()
	if err != nil {
		return 0, ftSnapshot{}, err
	}
	s, err := getSnapshot(b)
	return seq, s, err
}

func encodeFTWork(seq int64, ns []Node) []byte {
	b := nexus.NewBuffer()
	b.PutInt64(seq)
	b.PutBytes(EncodeNodes(ns))
	return b.Bytes()
}

func decodeFTWork(data []byte) (int64, []Node, error) {
	b := nexus.FromBytes(data)
	seq, err := b.GetInt64()
	if err != nil {
		return 0, nil, err
	}
	raw, err := b.GetBytes()
	if err != nil {
		return 0, nil, err
	}
	ns, err := DecodeNodes(raw)
	return seq, ns, err
}

func encodeFTBack(s ftSnapshot, ns []Node) []byte {
	b := nexus.NewBuffer()
	putSnapshot(b, s)
	b.PutBytes(EncodeNodes(ns))
	return b.Bytes()
}

func decodeFTBack(data []byte) (ftSnapshot, []Node, error) {
	b := nexus.FromBytes(data)
	s, err := getSnapshot(b)
	if err != nil {
		return s, nil, err
	}
	raw, err := b.GetBytes()
	if err != nil {
		return s, nil, err
	}
	ns, err := DecodeNodes(raw)
	return s, ns, err
}

// RunFT executes the fault-tolerant parallel branch-and-bound. Rank 0 is
// the master and must survive; slave ranks may crash at any point after the
// startup barrier without affecting the optimum. The Result (Best, Stats,
// MasterHandled, Elapsed) is valid on rank 0 only — there is no final
// collective to distribute it, by design.
func RunFT(c *mpi.Comm, in *Instance, p FTParams) (*Result, error) {
	p = p.withFTDefaults()
	p.Params = p.Params.withDefaults().resolve(in)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	start := c.Env().Now()
	// Same per-rank solve span as the non-FT path; reclaim/serve/steal
	// instants parent under it through the ambient context.
	env := c.Env()
	o := obs.From(env)
	tcSolve := o.BeginChild(start, obs.CtxOf(env), "knap", "solve", env.Hostname(),
		obs.Int("rank", int64(c.Rank())))
	saved := obs.CtxOf(env)
	obs.SetCtx(env, tcSolve)
	defer func() {
		obs.SetCtx(env, saved)
		o.EndSpan(env.Now(), tcSolve, "knap", "solve", env.Hostname())
	}()
	if c.Size() == 1 || c.Rank() == 0 {
		return runFTMaster(c, in, p, start)
	}
	return runFTSlave(c, in, p)
}

// ftSlaveState is the master's ledger entry for one slave.
type ftSlaveState struct {
	alive       bool
	lastHeard   time.Duration
	lastSteal   int64  // highest steal sequence received
	served      int64  // steal sequence the outstanding batch answers
	outstanding []Node // the one batch served but not yet proven consumed
	snap        ftSnapshot
}

func runFTMaster(c *mpi.Comm, in *Instance, p FTParams, start time.Duration) (*Result, error) {
	solver := NewSolver(in)
	solver.PruneBound = p.PruneBound
	size := c.Size()
	slaves := make([]*ftSlaveState, size)
	for s := 1; s < size; s++ {
		slaves[s] = &ftSlaveState{alive: true, lastHeard: start}
	}
	var pending []int
	inPending := make([]bool, size)
	var handled int64
	o, trk, _ := knapObs(c, solver.Best)

	markDead := func(s int) {
		st := slaves[s]
		if !st.alive {
			return
		}
		st.alive = false
		if o != nil {
			o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "reclaim", trk,
				obs.Int("slave", int64(s)), obs.Int("nodes", int64(len(st.outstanding))))
			o.Metrics().Counter("knap.reclaims").Add(1)
		}
		solver.Stack.PushAll(st.outstanding)
		st.outstanding = nil
	}
	reserve := p.MasterReserve
	if reserve < 0 {
		reserve = 0
	}
	serve := func() {
		for len(pending) > 0 && solver.Stack.Len() > reserve {
			s := pending[0]
			pending = pending[1:]
			inPending[s] = false
			st := slaves[s]
			if !st.alive {
				continue
			}
			batch := solver.Stack.TakeBottom(p.StealUnit)
			if err := c.Send(s, tagFTWork, encodeFTWork(st.lastSteal, batch)); err != nil {
				// Unreachable: take the work back and write the slave off.
				solver.Stack.PushAll(batch)
				markDead(s)
				continue
			}
			st.served = st.lastSteal
			st.outstanding = batch
			handled++
			if o != nil {
				o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "serve", trk,
					obs.Int("to", int64(s)), obs.Int("nodes", int64(len(batch))))
			}
		}
	}
	handleMsg := func(m mpi.Message) error {
		st := slaves[m.Src]
		if st == nil {
			return fmt.Errorf("knapsack ft master: message from unknown rank %d", m.Src)
		}
		st.lastHeard = c.Env().Now()
		st.alive = true // any message resurrects a falsely-declared death
		switch m.Tag {
		case tagFTSteal:
			seq, snap, err := decodeFTSteal(m.Data)
			if err != nil {
				return err
			}
			st.snap = snap
			switch {
			case seq > st.lastSteal:
				// The slave's proof that its previous batch is fully
				// expanded: drop it from the ledger and queue the request.
				st.lastSteal = seq
				st.outstanding = nil
				if !inPending[m.Src] {
					pending = append(pending, m.Src)
					inPending[m.Src] = true
				}
			case seq == st.lastSteal:
				if st.served == seq && len(st.outstanding) > 0 {
					// Same request again with the batch still on the ledger:
					// the reply was lost or is slow. Resend the identical
					// batch; the slave discards duplicates by sequence.
					if err := c.Send(m.Src, tagFTWork, encodeFTWork(seq, st.outstanding)); err != nil {
						markDead(m.Src)
					}
				} else if !inPending[m.Src] {
					// Not served yet, or served-then-reclaimed on a false
					// death: treat as a live request.
					pending = append(pending, m.Src)
					inPending[m.Src] = true
				}
			}
			// seq < lastSteal: stale duplicate from before a resend; ignore.
		case tagFTBack:
			snap, ns, err := decodeFTBack(m.Data)
			if err != nil {
				return err
			}
			st.snap = snap
			solver.Stack.PushAll(ns)
		case tagFTDone:
			// A straggler finishing after a false death; keep its totals.
			b := nexus.FromBytes(m.Data)
			if snap, err := getSnapshot(b); err == nil {
				st.snap = snap
			}
		default:
			return fmt.Errorf("knapsack ft master: unexpected tag %d from %d", m.Tag, m.Src)
		}
		return nil
	}
	idleDone := func() bool {
		for s := 1; s < size; s++ {
			if slaves[s].alive && !inPending[s] {
				return false
			}
		}
		return true
	}

	// step ends each interval's compute slice in place (ComputeEach),
	// handing back when the stack is empty, a steal can be served or a
	// message is waiting.
	step := func() time.Duration {
		if solver.Stack.Len() == 0 || len(pending) > 0 && solver.Stack.Len() > reserve ||
			c.Iprobe(mpi.AnySource, mpi.AnyTag) {
			return 0
		}
		return intervalCost(p.Params, solver.BranchN(p.Interval))
	}

	for {
		if solver.Stack.Len() > 0 {
			transport.ComputeEach(c.Env(), intervalCost(p.Params, solver.BranchN(p.Interval)), step)
			for c.Iprobe(mpi.AnySource, mpi.AnyTag) {
				m, err := c.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return nil, err
				}
				if err := handleMsg(m); err != nil {
					return nil, err
				}
			}
			serve()
			continue
		}
		if idleDone() {
			break
		}
		m, ok, err := c.RecvTimeout(mpi.AnySource, mpi.AnyTag, p.SlaveTimeout)
		if err != nil {
			return nil, err
		}
		if p.HeartbeatEvery > 0 {
			// Slaves beat while computing, so per-slave silence is an honest
			// death signal: reclaim even while other slaves keep talking
			// (starving peers resending steals must not shield a dead slave's
			// outstanding batch from reclamation).
			now := c.Env().Now()
			for s := 1; s < size; s++ {
				if slaves[s].alive && now-slaves[s].lastHeard >= p.SlaveTimeout {
					markDead(s)
				}
			}
		}
		if !ok {
			// Nobody spoke for a whole timeout while we starve: reclaim from
			// every slave that has been silent at least as long.
			now := c.Env().Now()
			for s := 1; s < size; s++ {
				if slaves[s].alive && now-slaves[s].lastHeard >= p.SlaveTimeout {
					markDead(s)
				}
			}
			continue
		}
		if err := handleMsg(m); err != nil {
			return nil, err
		}
		serve()
	}

	// Dismiss the survivors and collect their final totals. Failures here
	// are tolerated — the optimum is already exact, and the piggybacked
	// snapshot stands in for a lost final report.
	for s := 1; s < size; s++ {
		if !slaves[s].alive {
			continue
		}
		if err := c.Send(s, tagFTTerm, nil); err != nil {
			markDead(s)
		}
	}
	for s := 1; s < size; s++ {
		if !slaves[s].alive {
			continue
		}
		m, ok, err := c.RecvTimeout(s, tagFTDone, p.SlaveTimeout)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		b := nexus.FromBytes(m.Data)
		if snap, err := getSnapshot(b); err == nil {
			slaves[s].snap = snap
		}
	}

	res := &Result{
		Best:          solver.Best,
		Elapsed:       c.Env().Now() - start,
		MasterHandled: handled,
	}
	res.Stats = append(res.Stats, RankStats{Rank: 0, Name: c.Name(0), Traversed: solver.Traversed})
	res.TotalTraversed = solver.Traversed
	for s := 1; s < size; s++ {
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

func runFTSlave(c *mpi.Comm, in *Instance, p FTParams) (*Result, error) {
	worker := NewWorker(in)
	worker.PruneBound = p.PruneBound
	var seq, steals, sentBack int64
	o, trk, _ := knapObs(c, worker.Best)
	snapshot := func() ftSnapshot {
		return ftSnapshot{best: worker.Best, traversed: worker.Traversed, sentBack: sentBack, steals: steals}
	}
	finish := func() (*Result, error) {
		// Best effort: the master falls back to the last piggybacked
		// snapshot if this report is lost.
		_ = c.Send(0, tagFTDone, func() []byte {
			b := nexus.NewBuffer()
			putSnapshot(b, snapshot())
			return b.Bytes()
		}())
		return &Result{Best: worker.Best}, nil
	}
	opsSinceShare := 0
	lastContact := c.Env().Now()
	sendBack := func(k int) error {
		batch := worker.Stack.TakeBottom(k)
		sentBack += int64(len(batch))
		opsSinceShare = 0
		lastContact = c.Env().Now()
		return c.Send(0, tagFTBack, encodeFTBack(snapshot(), batch))
	}
	// backDue is when nodes are due back (parallel.go's two triggers) or,
	// with heartbeats on, a beat is: read at the wakeup that ends a slice.
	backDue := func() bool {
		return p.BackThreshold > 0 && worker.Stack.Len() > p.BackThreshold ||
			p.ShareInterval > 0 && opsSinceShare >= p.ShareInterval && worker.Stack.Len() > p.BackUnit+1 ||
			p.HeartbeatEvery > 0 && c.Env().Now()-lastContact >= p.HeartbeatEvery
	}
	branch := func() time.Duration {
		ran := worker.BranchN(p.Interval)
		opsSinceShare += ran
		return intervalCost(p.Params, ran)
	}
	// step ends each interval's compute slice in place (ComputeEach),
	// handing back when the stack is empty or backDue holds.
	step := func() time.Duration {
		if worker.Stack.Len() == 0 || backDue() {
			return 0
		}
		return branch()
	}
	for {
		if worker.Stack.Len() == 0 {
			seq++
			steals++
			if o != nil {
				o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "steal", trk, obs.Int("seq", seq))
				o.Metrics().Counter("knap.steals").Add(1)
			}
			retries := 0
			for worker.Stack.Len() == 0 {
				if err := c.Send(0, tagFTSteal, encodeFTSteal(seq, snapshot())); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrOrphaned, err)
				}
				m, ok, err := c.RecvTimeout(0, mpi.AnyTag, p.StealTimeout)
				if err != nil {
					return nil, err
				}
				if !ok {
					retries++
					if retries > p.StealRetries {
						return nil, ErrOrphaned
					}
					continue // resend the SAME sequence number
				}
				switch m.Tag {
				case tagFTTerm:
					return finish()
				case tagFTWork:
					gotSeq, ns, err := decodeFTWork(m.Data)
					if err != nil {
						return nil, err
					}
					if gotSeq != seq {
						continue // duplicate reply to an older steal; drop
					}
					worker.Stack.PushAll(ns)
					lastContact = c.Env().Now()
				default:
					return nil, fmt.Errorf("knapsack ft slave: unexpected tag %d", m.Tag)
				}
			}
			continue
		}
		transport.ComputeEach(c.Env(), branch(), step)
		switch {
		case p.BackThreshold > 0 && worker.Stack.Len() > p.BackThreshold:
			if err := sendBack(p.BackUnit); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrOrphaned, err)
			}
		case p.ShareInterval > 0 && opsSinceShare >= p.ShareInterval && worker.Stack.Len() > p.BackUnit+1:
			if err := sendBack(p.BackUnit); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrOrphaned, err)
			}
		case p.HeartbeatEvery > 0 && c.Env().Now()-lastContact >= p.HeartbeatEvery:
			// Liveness beat: an empty send-back refreshing the master's
			// lastHeard (and snapshot) so a long subtree expansion is not
			// mistaken for death under per-slave reclamation.
			if err := sendBack(0); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrOrphaned, err)
			}
		}
	}
}
