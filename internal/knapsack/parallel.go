package knapsack

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"nxcluster/internal/mpi"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// Message tags of the self-scheduling protocol. The payloads are Run's;
// RunFT's wire adds the fields in brackets (see encode).
const (
	tagSteal = 1 // slave -> master: "my stack is empty" [seq, snapshot]
	tagWork  = 2 // master -> slave: stealunit nodes [seq first]
	tagBack  = 3 // slave -> master: backunit nodes returned [snapshot first]
	tagTerm  = 4 // master -> slave: search finished
	tagDone  = 5 // slave -> master, RunFT only: [snapshot], the final report
)

// Params are the paper's tuning knobs for the master/slave self-scheduler
// ("we varied a stealunit, interval, and backunit and took the best
// combination").
type Params struct {
	// Interval is how many branch operations run between the master's
	// checks of slave steal requests (and between a slave's stack checks).
	Interval int
	// StealUnit is how many nodes a steal reply carries.
	StealUnit int
	// BackUnit is how many nodes a slave returns when its stack exceeds
	// BackThreshold.
	BackUnit int
	// BackThreshold is the slave stack depth that triggers sending nodes
	// back to the master. 0 selects an automatic threshold of
	// StealUnit + 6 (see resolve); negative disables the mechanism
	// entirely.
	BackThreshold int
	// MasterReserve is the stack depth the master keeps for itself while
	// serving steal requests, so that serving one fast slave cannot strip
	// the master bare and starve the rest. 0 selects 2; negative disables
	// the reserve.
	MasterReserve int
	// ShareInterval makes a busy slave voluntarily return BackUnit of its
	// coarsest nodes every ShareInterval branch operations, provided it
	// keeps enough work for itself. On the paper's deep search stacks the
	// depth trigger (BackThreshold) fires periodically during big-subtree
	// expansion; on shallow capacity-bounded stacks depth is uncorrelated
	// with remaining work, and this operation-count trigger provides the
	// same periodic redistribution. 0 selects 2*Interval; negative
	// disables it.
	ShareInterval int
	// NodeCost is the virtual CPU time one branch operation costs on a
	// nominal-speed processor.
	NodeCost time.Duration
	// PruneBound enables bound pruning (off for the paper's normalized
	// workload). Each rank prunes against its local incumbent only, which
	// is conservative and therefore still exact.
	PruneBound bool
}

// DefaultParams returns the tuned combination used by the experiment
// harness.
func DefaultParams() Params {
	return Params{Interval: 25, StealUnit: 2, BackUnit: 2, NodeCost: 1500 * time.Microsecond}
}

func (p Params) withDefaults() Params {
	if p.Interval <= 0 {
		p.Interval = 2000
	}
	if p.StealUnit <= 0 {
		p.StealUnit = 4
	}
	if p.BackUnit <= 0 {
		p.BackUnit = 2
	}
	return p
}

// resolve finalizes the automatic knobs. The depth-first stack of a
// branch-and-bound search stays shallow (one pending sibling per branching
// level), so both automatic knobs are small: the master keeps a couple of
// nodes for itself, and a slave whose stack outgrows a typical working
// depth ships its coarsest nodes home.
func (p Params) resolve(in *Instance) Params {
	if p.BackThreshold == 0 {
		p.BackThreshold = p.StealUnit + 6
	}
	if p.MasterReserve == 0 {
		p.MasterReserve = 2
	}
	if p.ShareInterval == 0 {
		p.ShareInterval = 2 * p.Interval
	}
	return p
}

// RankStats reports one rank's contribution (paper Tables 5 and 6).
type RankStats struct {
	// Rank in the MPI world.
	Rank int
	// Name is the placement (cluster/host) name.
	Name string
	// Steals counts steal requests the rank issued (0 for the master).
	Steals int64
	// Traversed counts nodes the rank expanded.
	Traversed int64
	// SentBack counts nodes the rank returned to the master.
	SentBack int64
}

// Result is the outcome of a parallel run.
type Result struct {
	// Best is the optimal profit (valid on every rank).
	Best int64
	// Elapsed is the master's search time, barrier to termination (valid
	// on rank 0).
	Elapsed time.Duration
	// MasterHandled counts steal requests the master served (Table 5's
	// "Master" column; valid on rank 0).
	MasterHandled int64
	// Stats holds per-rank statistics in rank order (valid on rank 0).
	Stats []RankStats
	// TotalTraversed sums Traversed over ranks (valid on rank 0).
	TotalTraversed int64
}

// Run executes the parallel branch-and-bound on the communicator: rank 0 is
// the master, every other rank a slave stealing work on demand. All ranks
// must pass identical instances and params.
func Run(c *mpi.Comm, in *Instance, p Params) (*Result, error) {
	return run(c, in, FTParams{Params: p, SlaveTimeout: -1, StealTimeout: -1}, false)
}

// run is Run and RunFT: one master loop and one slave loop, with RunFT's
// steal ledger (ft) layered on them. Under Run every wait is unbounded
// (negative timeouts), so no slave resends a steal and the master never
// writes a slave off.
func run(c *mpi.Comm, in *Instance, p FTParams, ft bool) (*Result, error) {
	p.Params = p.Params.withDefaults().resolve(in)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	start := c.Env().Now()
	// Each rank's solve is one span under its mpi/rank context; the steal,
	// bound, serve and reclaim instants below parent under it via the
	// ambient context, so a job's critical path can charge time to the
	// solver leg.
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
	r := &rank{c: c, p: p, ft: ft, start: start, o: o, st: RankStats{Rank: c.Rank(), Name: c.Name(c.Rank())}}
	if o != nil {
		r.trk = "knap/rank" + strconv.Itoa(c.Rank())
	}
	if c.Rank() == 0 {
		r.setSolver(NewSolver(in))
		return r.master()
	}
	r.setSolver(NewWorker(in))
	return r.slave()
}

// rank is one rank's side of a run.
type rank struct {
	c     *mpi.Comm
	p     FTParams
	ft    bool // RunFT: its wire, failure handling, final collection and trace
	start time.Duration
	s     *Solver
	st    RankStats // this rank's steals and sent-back nodes
	ops   int       // branch operations since the slave last shared
	out   []byte    // the send scratch encode frames into
	back  []Node    // the slave's send-back batch, reused per send
	// o and trk are nil and "" when tracing is off; lastBest suppresses
	// duplicate bound events.
	o        *obs.Observer
	trk      string
	lastBest int64
}

// setSolver installs the rank's search: a solver holding the root on the
// master, an empty worker on a slave.
func (r *rank) setSolver(s *Solver) {
	s.PruneBound = r.p.PruneBound
	r.s, r.lastBest = s, s.Best
}

// emit records one knap instant on the rank's track; o is non-nil.
func (r *rank) emit(name string, fields ...obs.Field) {
	r.o.EmitCtx(r.c.Env().Now(), obs.CtxOf(r.c.Env()), "knap", name, r.trk, fields...)
}

// bound emits the incumbent when it has improved (Run's trace only).
func (r *rank) bound() {
	if r.o != nil && !r.ft && r.s.Best != r.lastBest {
		r.lastBest = r.s.Best
		r.emit("bound", obs.Int("best", r.lastBest))
	}
}

// branch runs one interval of branch operations and returns its CPU time.
func (r *rank) branch() time.Duration {
	ran := r.s.BranchN(r.p.Interval)
	r.ops += ran
	return intervalCost(r.p.Params, ran)
}

// stepper returns the step that ends each interval's compute slice in place
// (ComputeEach): it emits the bound, hands back to the rank's loop when the
// stack is empty or busy reports something to do but branch, and otherwise
// branches the next interval.
func (r *rank) stepper(busy func() bool) func() time.Duration {
	return func() time.Duration {
		r.bound()
		if r.s.Stack.Len() == 0 || busy() {
			return 0
		}
		return r.branch()
	}
}

// compute branches intervals until step hands back.
func (r *rank) compute(step func() time.Duration) {
	transport.ComputeEach(r.c.Env(), r.branch(), step)
	r.bound() // a no-op after step's, unless the interval cost nothing
}

// lost is a failed send to the peer: under RunFT the sending slave is
// orphaned; under Run the error ends the rank.
func (r *rank) lost(err error) error {
	if r.ft {
		return fmt.Errorf("%w: %v", ErrOrphaned, err)
	}
	return err
}

// master is the paper's master: read data, push the root, branch in
// interval-sized batches, and serve steal requests from the bottom of the
// stack (the paper's "top"; see serve). With no slaves it is the sequential
// baseline: the search runs in one BranchN call to exhaustion and the
// scheduler is entered once with ran × NodeCost. That is exactly the sum of
// the per-interval charges the loop would issue, in integers, whenever each
// charge is exact under the host's speed scaling (always true at nominal
// speed 1.0, where the baseline runs), so Elapsed is bit-identical to the
// interval-at-a-time loop.
func (r *rank) master() (*Result, error) {
	c, solver := r.c, r.s
	size := c.Size()
	slaves := make([]slaveState, size)
	for s := 1; s < size; s++ {
		slaves[s] = slaveState{alive: true, lastHeard: r.start}
	}
	// pending lists the slaves with unanswered steal requests, FIFO; a
	// serve shifts it down, so its array is reused.
	pending := make([]int, 0, size)
	var handled int64

	markDead := func(s int) {
		st := &slaves[s]
		if !st.alive {
			return
		}
		st.alive = false
		if r.o != nil {
			r.emit("reclaim", obs.Int("slave", int64(s)), obs.Int("nodes", int64(len(st.outstanding))))
			r.o.Metrics().Counter("knap.reclaims").Add(1)
		}
		solver.Stack.PushAll(st.outstanding)
		st.outstanding = st.outstanding[:0]
	}
	reserve := max(r.p.MasterReserve, 0)
	serve := func() error {
		// Serve waiting slaves with the oldest nodes on the stack — the
		// shallow entries whose subtrees are the largest. (The paper says
		// the master sends "stealunit nodes on top of its stack"; with the
		// array-stack representation of the era the top is the oldest end,
		// and only this reading produces the paper's measured load balance:
		// handing out the newest, deepest nodes starves the slaves on
		// leaf-sized subtrees while the master keeps all coarse work.)
		// The master never serves below its reserve, so one fast slave
		// cannot strip it bare and starve the rest.
		for len(pending) > 0 && solver.Stack.Len() > reserve {
			s := pending[0]
			pending = pending[:copy(pending, pending[1:])]
			st := &slaves[s]
			st.pending = false
			if !st.alive {
				continue
			}
			batch := solver.Stack.takeBottom(st.outstanding[:0], r.p.StealUnit)
			if err := c.Send(s, tagWork, r.encode(tagWork, st.lastSteal, batch)); err != nil {
				if !r.ft {
					return err
				}
				// Unreachable: take the work back and write the slave off.
				solver.Stack.PushAll(batch)
				markDead(s)
				continue
			}
			st.served = st.lastSteal
			st.outstanding = batch
			handled++
			if r.o != nil {
				r.emit("serve", obs.Int("to", int64(s)), obs.Int("nodes", int64(len(batch))))
			}
		}
		return nil
	}
	queue := func(s int) {
		if !slaves[s].pending {
			pending = append(pending, s)
			slaves[s].pending = true
		}
	}
	handleMsg := func(m mpi.Message) error {
		if m.Src < 1 || m.Src >= size {
			return fmt.Errorf("knapsack master: message from unknown rank %d", m.Src)
		}
		st := &slaves[m.Src]
		st.lastHeard = c.Env().Now()
		st.alive = true // any message resurrects a falsely-declared death
		switch m.Tag {
		case tagSteal:
			seq, snap, _, err := r.decode(tagSteal, m.Data, st.lastSteal+1)
			if err != nil {
				return err
			}
			st.snap = snap
			switch {
			case seq > st.lastSteal:
				// The slave's proof that its previous batch is fully
				// expanded: drop it from the ledger and queue the request.
				st.lastSteal = seq
				st.outstanding = st.outstanding[:0]
				queue(m.Src)
			case seq == st.lastSteal:
				if st.served == seq && len(st.outstanding) > 0 {
					// Same request again with the batch still on the ledger:
					// the reply was lost or is slow. Resend the identical
					// batch; the slave discards duplicates by sequence.
					if err := c.Send(m.Src, tagWork, r.encode(tagWork, seq, st.outstanding)); err != nil {
						markDead(m.Src)
					}
				} else {
					// Not served yet, or served-then-reclaimed on a false
					// death: treat as a live request.
					queue(m.Src)
				}
			}
			// seq < lastSteal: stale duplicate from before a resend; ignore.
		case tagBack:
			_, snap, ns, err := r.decode(tagBack, m.Data, 0)
			if err == nil {
				err = solver.Stack.pushEncoded(ns)
			}
			if err != nil {
				return err
			}
			st.snap = snap
		case tagDone:
			// A straggler finishing after a false death; keep its totals.
			if _, snap, _, err := r.decode(tagDone, m.Data, 0); err == nil {
				st.snap = snap
			}
		default:
			return fmt.Errorf("knapsack master: unexpected tag %d from %d", m.Tag, m.Src)
		}
		return nil
	}
	// idle is when every live slave waits on a steal: with the master out
	// of work too, the search is complete (per-source FIFO delivery means
	// no tagBack can still be in flight from a slave whose steal request we
	// already hold).
	idle := func() bool {
		for s := 1; s < size; s++ {
			if slaves[s].alive && !slaves[s].pending {
				return false
			}
		}
		return true
	}
	step := r.stepper(func() bool {
		return len(pending) > 0 && solver.Stack.Len() > reserve || c.Iprobe(mpi.AnySource, mpi.AnyTag)
	})

	if size == 1 {
		if cost := intervalCost(r.p.Params, solver.BranchN(math.MaxInt)); cost > 0 {
			c.Env().Compute(cost)
		}
	}
	for size > 1 {
		if solver.Stack.Len() > 0 {
			r.compute(step)
			for c.Iprobe(mpi.AnySource, mpi.AnyTag) {
				m, err := c.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return nil, err
				}
				if err := handleMsg(m); err != nil {
					return nil, err
				}
			}
			if err := serve(); err != nil {
				return nil, err
			}
			continue
		}
		if idle() {
			break
		}
		m, ok, err := c.RecvTimeout(mpi.AnySource, mpi.AnyTag, r.p.SlaveTimeout)
		if err != nil {
			return nil, err
		}
		if r.p.HeartbeatEvery > 0 || !ok {
			// With heartbeats, slaves beat while computing, so per-slave
			// silence is an honest death signal: reclaim even while other
			// slaves keep talking (starving peers resending steals must not
			// shield a dead slave's outstanding batch). Without them, only
			// a whole timeout in which nobody spoke while we starve
			// reclaims, from every slave silent at least as long.
			now := c.Env().Now()
			for s := 1; s < size; s++ {
				if slaves[s].alive && now-slaves[s].lastHeard >= r.p.SlaveTimeout {
					markDead(s)
				}
			}
		}
		if !ok {
			continue
		}
		if err := handleMsg(m); err != nil {
			return nil, err
		}
		if err := serve(); err != nil {
			return nil, err
		}
	}
	for s := 1; s < size; s++ {
		if !slaves[s].alive {
			continue
		}
		if err := c.Send(s, tagTerm, nil); err != nil {
			if !r.ft {
				return nil, err
			}
			markDead(s)
		}
	}
	r.st.Traversed = solver.Traversed
	if r.ft {
		return r.collectDone(slaves, handled)
	}
	return r.collectResult(handled)
}

// slave is the paper's slave: branch until the stack empties, then steal
// from the master; return backunit nodes whenever the stack grows beyond the
// threshold or ShareInterval operations have passed.
func (r *rank) slave() (*Result, error) {
	c, worker := r.c, r.s
	var seq int64
	lastContact := c.Env().Now()
	// due reports how many nodes are due back: BackUnit when the stack has
	// grown past the threshold, or the slave has branched ShareInterval
	// operations since it last shared with enough left for itself; none,
	// as a heartbeat, when one is due.
	due := func() (int, bool) {
		switch {
		case r.p.BackThreshold > 0 && worker.Stack.Len() > r.p.BackThreshold,
			r.p.ShareInterval > 0 && r.ops >= r.p.ShareInterval && worker.Stack.Len() > r.p.BackUnit+1:
			return r.p.BackUnit, true
		case r.p.HeartbeatEvery > 0 && c.Env().Now()-lastContact >= r.p.HeartbeatEvery:
			return 0, true
		}
		return 0, false
	}
	step := r.stepper(func() bool {
		_, ok := due()
		return ok
	})
	for {
		if worker.Stack.Len() == 0 {
			seq++
			r.st.Steals++
			if r.o != nil {
				if r.ft {
					r.emit("steal", obs.Int("seq", seq))
				} else {
					r.emit("steal")
				}
				r.o.Metrics().Counter("knap.steals").Add(1)
			}
			retries := 0
			for worker.Stack.Len() == 0 {
				if err := c.Send(0, tagSteal, r.encode(tagSteal, seq, nil)); err != nil {
					return nil, r.lost(err)
				}
				m, ok, err := c.RecvTimeout(0, mpi.AnyTag, r.p.StealTimeout)
				if err != nil {
					return nil, err
				}
				if !ok {
					retries++
					if retries > r.p.StealRetries {
						return nil, ErrOrphaned
					}
					continue // resend the SAME sequence number
				}
				switch m.Tag {
				case tagTerm:
					r.st.Traversed = worker.Traversed
					if r.ft {
						// Best effort: the master falls back to the last
						// piggybacked snapshot if this report is lost.
						_ = c.Send(0, tagDone, r.encode(tagDone, 0, nil))
						return &Result{Best: worker.Best}, nil
					}
					return r.collectResult(0)
				case tagWork:
					got, _, ns, err := r.decode(tagWork, m.Data, seq)
					if err == nil && got == seq {
						err = worker.Stack.pushEncoded(ns)
					}
					if err != nil {
						return nil, err
					}
					if got != seq {
						continue // duplicate reply to an older steal; drop
					}
					lastContact = c.Env().Now()
				default:
					return nil, fmt.Errorf("knapsack slave: unexpected tag %d", m.Tag)
				}
			}
			continue
		}
		r.compute(step)
		if k, ok := due(); ok {
			batch := worker.Stack.takeBottom(r.back[:0], k)
			r.back = batch
			r.st.SentBack += int64(len(batch))
			r.ops = 0
			lastContact = c.Env().Now()
			if r.o != nil && !r.ft {
				r.emit("back", obs.Int("nodes", int64(len(batch))))
			}
			if err := c.Send(0, tagBack, r.encode(tagBack, 0, batch)); err != nil {
				return nil, r.lost(err)
			}
		}
	}
}

// collectResult is Run's final collection: an allreduce of the incumbent
// and a gather of every rank's statistics.
func (r *rank) collectResult(handled int64) (*Result, error) {
	c := r.c
	elapsed := c.Env().Now() - r.start
	best, err := c.AllreduceInt64(r.s.Best, mpi.OpMax)
	if err != nil {
		return nil, err
	}
	parts, err := c.Gather(0, encodeStats(r.st))
	if err != nil {
		return nil, err
	}
	res := &Result{Best: best, Elapsed: elapsed, MasterHandled: handled}
	if c.Rank() == 0 {
		for r, part := range parts {
			st, err := decodeStats(r, part)
			if err != nil {
				return nil, err
			}
			res.Stats = append(res.Stats, st)
			res.TotalTraversed += st.Traversed
		}
	}
	return res, nil
}

// encodeStats serializes one rank's statistics for the final gather.
func encodeStats(st RankStats) []byte {
	b := nexus.NewBuffer()
	b.PutInt64(st.Steals)
	b.PutInt64(st.Traversed)
	b.PutInt64(st.SentBack)
	b.PutString(st.Name)
	return b.Bytes()
}

// decodeStats parses one rank's gathered statistics.
func decodeStats(rank int, data []byte) (RankStats, error) {
	b := nexus.FromBytes(data)
	var st RankStats
	var err error
	st.Rank = rank
	if st.Steals, err = b.GetInt64(); err != nil {
		return st, err
	}
	if st.Traversed, err = b.GetInt64(); err != nil {
		return st, err
	}
	if st.SentBack, err = b.GetInt64(); err != nil {
		return st, err
	}
	if st.Name, err = b.GetString(); err != nil {
		return st, err
	}
	return st, nil
}

// intervalCost is the virtual CPU time of ran branch operations.
func intervalCost(p Params, ran int) time.Duration {
	if p.NodeCost > 0 && ran > 0 {
		return time.Duration(ran) * p.NodeCost
	}
	return 0
}
