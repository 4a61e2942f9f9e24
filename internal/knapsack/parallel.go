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

// Message tags of the self-scheduling protocol.
const (
	tagSteal = 1 // slave -> master: "my stack is empty"
	tagWork  = 2 // master -> slave: stealunit nodes
	tagBack  = 3 // slave -> master: backunit nodes returned
	tagTerm  = 4 // master -> slave: search finished
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

	// bestForReduce carries the rank's local incumbent into the final
	// allreduce.
	bestForReduce int64
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
	p = p.withDefaults().resolve(in)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	start := c.Env().Now()
	// Each rank's solve is one span under its mpi/rank context; the steal,
	// bound, and reclaim instants below parent under it via the ambient
	// context, so a job's critical path can charge time to the solver leg.
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
	var (
		local RankStats
		err   error
	)
	local.Rank = c.Rank()
	local.Name = c.Name(c.Rank())
	var handled int64
	switch {
	case c.Size() == 1:
		local, err = runSequentialMaster(c, in, p)
	case c.Rank() == 0:
		handled, local, err = runMaster(c, in, p)
	default:
		local, err = runSlave(c, in, p)
	}
	if err != nil {
		return nil, err
	}
	elapsed := c.Env().Now() - start
	return collectResult(c, local, handled, elapsed)
}

// collectResult performs the final allreduce/gather.
func collectResult(c *mpi.Comm, local RankStats, handled int64, elapsed time.Duration) (*Result, error) {
	best, err := c.AllreduceInt64(local.bestForReduce, mpi.OpMax)
	if err != nil {
		return nil, err
	}
	parts, err := c.Gather(0, encodeStats(local))
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

// knapObs resolves a rank's observer and trace track, and seeds the
// incumbent used to suppress duplicate bound events. All three are inert
// when tracing is off (nil observer).
func knapObs(c *mpi.Comm, best int64) (*obs.Observer, string, int64) {
	o := obs.From(c.Env())
	trk := ""
	if o != nil {
		trk = "knap/rank" + strconv.Itoa(c.Rank())
	}
	return o, trk, best
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

// runSequentialMaster is the single-rank fast path used by the sequential
// baseline runs. With no slaves there are no steal requests to poll and no
// messages to serve, so the search runs in one BranchN call to exhaustion
// and the scheduler is entered once with ran × NodeCost. That is exactly the
// sum of the per-interval charges runMaster would issue one steal-interval
// at a time, in integers, whenever each charge is exact under the host's
// speed scaling (always true at nominal speed 1.0, where the baseline runs),
// so the reported Elapsed is bit-identical to the interval-at-a-time loop.
func runSequentialMaster(c *mpi.Comm, in *Instance, p Params) (RankStats, error) {
	solver := NewSolver(in)
	solver.PruneBound = p.PruneBound
	if cost := intervalCost(p, solver.BranchN(math.MaxInt)); cost > 0 {
		c.Env().Compute(cost)
	}
	st := RankStats{Rank: 0, Name: c.Name(0), Traversed: solver.Traversed, bestForReduce: solver.Best}
	return st, nil
}

// intervalCost is the virtual CPU time of ran branch operations.
func intervalCost(p Params, ran int) time.Duration {
	if p.NodeCost > 0 && ran > 0 {
		return time.Duration(ran) * p.NodeCost
	}
	return 0
}

// runMaster is the paper's master: read data, push the root, branch in
// interval-sized batches, and serve steal requests from the bottom of the
// stack (the paper's "top"; see serve).
func runMaster(c *mpi.Comm, in *Instance, p Params) (int64, RankStats, error) {
	solver := NewSolver(in)
	solver.PruneBound = p.PruneBound
	nslaves := c.Size() - 1
	var pending []int // slaves with unanswered steal requests, FIFO
	var handled int64
	o, trk, lastBest := knapObs(c, solver.Best)

	reserve := p.MasterReserve
	if reserve < 0 {
		reserve = 0
	}
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
			batch := solver.Stack.TakeBottom(p.StealUnit)
			to := pending[0]
			pending = pending[1:]
			if err := c.Send(to, tagWork, EncodeNodes(batch)); err != nil {
				return err
			}
			handled++
			if o != nil {
				o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "serve", trk,
					obs.Int("to", int64(to)), obs.Int("nodes", int64(len(batch))))
			}
		}
		return nil
	}
	handleMsg := func(m mpi.Message) error {
		switch m.Tag {
		case tagSteal:
			pending = append(pending, m.Src)
		case tagBack:
			ns, err := DecodeNodes(m.Data)
			if err != nil {
				return err
			}
			solver.Stack.PushAll(ns)
		default:
			return fmt.Errorf("knapsack master: unexpected tag %d from %d", m.Tag, m.Src)
		}
		return nil
	}

	emitBound := func() {
		if o != nil && solver.Best != lastBest {
			lastBest = solver.Best
			o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "bound", trk, obs.Int("best", lastBest))
		}
	}
	// step ends each interval's compute slice in place (ComputeEach): it
	// emits the bound, hands back to the loop below when there is anything
	// to do but branch (the stack is empty, a steal can be served, a
	// message is waiting), and otherwise branches the next interval.
	step := func() time.Duration {
		emitBound()
		if solver.Stack.Len() == 0 || len(pending) > 0 && solver.Stack.Len() > reserve ||
			c.Iprobe(mpi.AnySource, mpi.AnyTag) {
			return 0
		}
		return intervalCost(p, solver.BranchN(p.Interval))
	}

	for {
		if solver.Stack.Len() > 0 {
			transport.ComputeEach(c.Env(), intervalCost(p, solver.BranchN(p.Interval)), step)
			emitBound() // a no-op after step's, unless the interval cost nothing
			for c.Iprobe(mpi.AnySource, mpi.AnyTag) {
				m, err := c.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return 0, RankStats{}, err
				}
				if err := handleMsg(m); err != nil {
					return 0, RankStats{}, err
				}
			}
			if err := serve(); err != nil {
				return 0, RankStats{}, err
			}
			continue
		}
		// Master out of work: when every slave is also idle the search is
		// complete (per-source FIFO delivery means no tagBack can still be
		// in flight from a slave whose steal request we already hold).
		if len(pending) == nslaves {
			break
		}
		m, err := c.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return 0, RankStats{}, err
		}
		if err := handleMsg(m); err != nil {
			return 0, RankStats{}, err
		}
		if err := serve(); err != nil {
			return 0, RankStats{}, err
		}
	}
	for i := 1; i < c.Size(); i++ {
		if err := c.Send(i, tagTerm, nil); err != nil {
			return 0, RankStats{}, err
		}
	}
	st := RankStats{Rank: 0, Name: c.Name(0), Traversed: solver.Traversed, bestForReduce: solver.Best}
	return handled, st, nil
}

// runSlave is the paper's slave: branch until the stack empties, then steal
// from the master; return backunit nodes whenever the stack grows beyond the
// threshold.
func runSlave(c *mpi.Comm, in *Instance, p Params) (RankStats, error) {
	worker := NewWorker(in)
	worker.PruneBound = p.PruneBound
	var st RankStats
	st.Rank = c.Rank()
	st.Name = c.Name(c.Rank())
	o, trk, lastBest := knapObs(c, worker.Best)
	opsSinceShare := 0
	sendBack := func(k int) error {
		batch := worker.Stack.TakeBottom(k)
		st.SentBack += int64(len(batch))
		opsSinceShare = 0
		if o != nil {
			o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "back", trk, obs.Int("nodes", int64(len(batch))))
		}
		return c.Send(0, tagBack, EncodeNodes(batch))
	}
	emitBound := func() {
		if o != nil && worker.Best != lastBest {
			lastBest = worker.Best
			o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "bound", trk, obs.Int("best", lastBest))
		}
	}
	// backDue is when the stack has grown past the threshold, or the slave
	// has branched ShareInterval operations since it last shared, with
	// enough left for itself.
	backDue := func() bool {
		return p.BackThreshold > 0 && worker.Stack.Len() > p.BackThreshold ||
			p.ShareInterval > 0 && opsSinceShare >= p.ShareInterval && worker.Stack.Len() > p.BackUnit+1
	}
	branch := func() time.Duration {
		ran := worker.BranchN(p.Interval)
		opsSinceShare += ran
		return intervalCost(p, ran)
	}
	// step ends each interval's compute slice in place (ComputeEach): it
	// emits the bound, hands back when the stack is empty or nodes are due
	// back, and otherwise branches the next interval.
	step := func() time.Duration {
		emitBound()
		if worker.Stack.Len() == 0 || backDue() {
			return 0
		}
		return branch()
	}
	for {
		if worker.Stack.Len() == 0 {
			st.Steals++
			if o != nil {
				o.EmitCtx(c.Env().Now(), obs.CtxOf(c.Env()), "knap", "steal", trk)
				o.Metrics().Counter("knap.steals").Add(1)
			}
			if err := c.Send(0, tagSteal, nil); err != nil {
				return st, err
			}
			m, err := c.Recv(0, mpi.AnyTag)
			if err != nil {
				return st, err
			}
			if m.Tag == tagTerm {
				break
			}
			if m.Tag != tagWork {
				return st, fmt.Errorf("knapsack slave: unexpected tag %d", m.Tag)
			}
			ns, err := DecodeNodes(m.Data)
			if err != nil {
				return st, err
			}
			worker.Stack.PushAll(ns)
			continue
		}
		transport.ComputeEach(c.Env(), branch(), step)
		emitBound() // a no-op after step's, unless the interval cost nothing
		if backDue() {
			if err := sendBack(p.BackUnit); err != nil {
				return st, err
			}
		}
	}
	st.Traversed = worker.Traversed
	st.bestForReduce = worker.Best
	return st, nil
}
