// Package mpi implements the subset of MPI the paper's application layer
// needs, in the architecture of MPICH-G: point-to-point messages and
// collectives built on Nexus remote service requests, with the Nexus Proxy
// underneath when ranks sit behind firewalls. Each rank is one process (in
// the simulator, one virtual process on its cluster node; on real TCP, one
// goroutine).
//
// Supported: ranks/size, Send/Recv with tags, AnySource/AnyTag wildcards,
// Iprobe/Probe, Barrier, Bcast, Reduce/Allreduce (int64 and float64 sums,
// min, max), and Gather. Unsupported (and unneeded by the paper's
// workloads): communicators other than COMM_WORLD, derived datatypes,
// one-sided operations.
package mpi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// AnySource matches messages from every rank in Recv/Probe.
const AnySource = -1

// AnyTag matches every user tag in Recv/Probe.
const AnyTag = -1

// Internal tags live in negative space below AnyTag; user tags must be >= 0.
const (
	tagBarrier     = -10
	tagBarrierDone = -11
	tagBcast       = -12
	tagReduce      = -13
	tagGather      = -15
)

// handler id for data messages on each rank's endpoint.
const hData = 1

// ErrInvalidTag reports a user tag in the reserved negative space.
var ErrInvalidTag = errors.New("mpi: user tags must be >= 0")

// Message is a received point-to-point message.
type Message struct {
	// Src is the sending rank.
	Src int
	// Tag is the user tag.
	Tag int
	// Data is the payload.
	Data []byte
}

// Placement describes where one rank runs and how it reaches the world.
type Placement struct {
	// Name labels the rank's process (host/cluster name for reports).
	Name string
	// Spawn places the rank's process on its host (e.g. Node.SpawnOn).
	Spawn func(name string, fn func(transport.Env))
	// Proxy is the rank's Nexus Proxy configuration; zero means direct
	// communication (the paper's non-firewalled sites).
	Proxy proxy.Config
}

// World wires a set of ranks together and runs the application function on
// each. Create it with NewWorld, then Launch.
type World struct {
	placements []Placement
	mu         sync.Mutex
	addrs      []string
	errs       []error
	done       int
	doneCh     chan struct{}
}

// NewWorld prepares a world with one rank per placement.
func NewWorld(placements []Placement) *World {
	return &World{
		placements: placements,
		addrs:      make([]string, len(placements)),
		errs:       make([]error, len(placements)),
		doneCh:     make(chan struct{}),
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.placements) }

// Launch spawns every rank; each runs fn with its Comm. In the simulator,
// drive the kernel afterwards and then inspect Err; on real TCP, Wait blocks
// until all ranks return.
func (w *World) Launch(fn func(c *Comm) error) {
	for i, pl := range w.placements {
		i, pl := i, pl
		pl.Spawn(fmt.Sprintf("mpi:rank%d:%s", i, pl.Name), func(env transport.Env) {
			err := w.runRank(env, i, pl, fn)
			w.mu.Lock()
			w.errs[i] = err
			w.done++
			finished := w.done == len(w.placements)
			w.mu.Unlock()
			if finished {
				close(w.doneCh)
			}
		})
	}
}

// Wait blocks the calling goroutine until every rank has returned. Only for
// real-TCP worlds; simulated worlds complete when the kernel drains.
func (w *World) Wait() { <-w.doneCh }

// Err returns the first rank error, annotated with its rank.
func (w *World) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, err := range w.errs {
		if err != nil {
			return fmt.Errorf("rank %d (%s): %w", i, w.placements[i].Name, err)
		}
	}
	return nil
}

// runRank boots one rank: create its Nexus context/endpoint, publish the
// address, wait for the full roster (the DUROC-style startup barrier), then
// run the application.
func (w *World) runRank(env transport.Env, rank int, pl Placement, fn func(*Comm) error) error {
	// Each rank is a traced job: its root span covers init, the roster
	// barrier and the application, and every span opened below (proxy
	// connects, dials, staging, solver phases) parents under it through the
	// process's ambient context. Ranks launched from an already-traced
	// process (a Q server exec span) join that trace instead of rooting one.
	if o := obs.From(env); o != nil {
		tc := o.BeginSpan(env.Now(), obs.CtxOf(env), "mpi", "rank", env.Hostname(),
			obs.Int("rank", int64(rank)), obs.Str("placement", pl.Name))
		obs.SetCtx(env, tc)
		defer func() { o.EndSpan(env.Now(), tc, "mpi", "rank", env.Hostname()) }()
	}
	ctx, err := nexus.Init(env, pl.Proxy)
	if err != nil {
		return fmt.Errorf("mpi: rank %d init: %w", rank, err)
	}
	defer ctx.Shutdown(env)

	c := &Comm{
		env:   env,
		world: w,
		rank:  rank,
		ctx:   ctx,
		sps:   make([]*nexus.Startpoint, len(w.placements)),
		inbox: transport.NewQueue[*Message](env),
		out:   nexus.NewBuffer(),
	}
	if o := obs.From(env); o != nil {
		pfx := "mpi.rank" + strconv.Itoa(rank)
		c.mSent = o.Metrics().Counter(pfx + ".sent")
		c.mBytes = o.Metrics().Counter(pfx + ".sent_bytes")
		c.mRecvd = o.Metrics().Counter(pfx + ".received")
	}
	ep := ctx.NewEndpoint()
	ep.Register(hData, func(e transport.Env, b *nexus.Buffer) {
		src, err1 := b.GetInt32()
		tag, err2 := b.GetInt32()
		data, err3 := b.GetBytes()
		if err1 != nil || err2 != nil || err3 != nil {
			return // malformed; drop
		}
		// The frame's payload is the handler's own: keep it, no copy.
		m := c.msgs.get()
		*m = Message{Src: int(src), Tag: int(tag), Data: data}
		c.inbox.Put(e, m)
	})

	// Publish the address and poll until the whole roster is there.
	// (MPICH-G performs the same job-wide startup synchronization through
	// DUROC.)
	w.mu.Lock()
	w.addrs[rank] = ep.Address()
	w.mu.Unlock()
	for {
		w.mu.Lock()
		complete := true
		for _, a := range w.addrs {
			if a == "" {
				complete = false
				break
			}
		}
		w.mu.Unlock()
		if complete {
			break
		}
		env.Sleep(1e6) // 1ms
	}

	appErr := fn(c)
	c.closeStartpoints()
	return appErr
}

// Comm is one rank's handle on COMM_WORLD. It belongs to the rank's process:
// only that process may call its methods.
type Comm struct {
	env     transport.Env
	world   *World
	rank    int
	ctx     *nexus.Context
	sps     []*nexus.Startpoint
	inbox   transport.Queue[*Message]
	msgs    msgPool // the records inbox carries
	pending []Message
	out     *nexus.Buffer // the send buffer, reused per message
	// cached observability handles (nil when tracing is off — updates are
	// then branch-and-return no-ops, keeping the send path allocation-free)
	mSent  *obs.Counter
	mBytes *obs.Counter
	mRecvd *obs.Counter
}

// msgPool recycles the records of a rank's inbox, so that queueing a
// message boxes nothing. The rank's Nexus readers take them and the rank
// gives them back, on a TCPEnv from different goroutines.
type msgPool struct {
	mu   sync.Mutex
	free []*Message
}

func (p *msgPool) get() *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(Message)
	}
	m := p.free[n-1]
	p.free = p.free[:n-1]
	return m
}

// unbox returns a record's message and recycles the record.
func (p *msgPool) unbox(rec *Message) Message {
	m := *rec
	*rec = Message{}
	p.mu.Lock()
	p.free = append(p.free, rec)
	p.mu.Unlock()
	return m
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.Size() }

// Name returns the placement name of a rank.
func (c *Comm) Name(rank int) string { return c.world.placements[rank].Name }

// Env exposes the rank's execution environment (for Compute, Sleep, Now).
func (c *Comm) Env() transport.Env { return c.env }

func (c *Comm) startpoint(to int) (*nexus.Startpoint, error) {
	if to < 0 || to >= c.Size() {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", to, c.Size())
	}
	if c.sps[to] == nil {
		c.world.mu.Lock()
		addr := c.world.addrs[to]
		c.world.mu.Unlock()
		sp, err := c.ctx.Attach(c.env, addr)
		if err != nil {
			return nil, fmt.Errorf("mpi: attach rank %d: %w", to, err)
		}
		c.sps[to] = sp
	}
	return c.sps[to], nil
}

func (c *Comm) closeStartpoints() {
	for _, sp := range c.sps {
		if sp != nil {
			_ = sp.Close(c.env)
		}
	}
}

// send transmits (tag may be internal).
func (c *Comm) send(to, tag int, data []byte) error {
	sp, err := c.startpoint(to)
	if err != nil {
		return err
	}
	b := c.out
	b.Reset()
	b.PutInt32(int32(c.rank))
	b.PutInt32(int32(tag))
	b.PutBytes(data)
	if err := sp.Send(c.env, hData, b); err != nil {
		return err
	}
	c.mSent.Add(1)
	c.mBytes.Add(int64(len(data)))
	return nil
}

// Send transmits data to rank `to` with a user tag.
func (c *Comm) Send(to, tag int, data []byte) error {
	if tag < 0 {
		return ErrInvalidTag
	}
	return c.send(to, tag, data)
}

// match reports whether m is from src (or src is AnySource) and carries tag,
// where AnyTag matches every user tag and no internal one.
func match(m Message, src, tag int) bool {
	return (src == AnySource || m.Src == src) && (m.Tag == tag || tag == AnyTag && m.Tag >= 0)
}

// Recv blocks for a message from src (or AnySource) with tag (or AnyTag).
// Wildcards never match internal collective traffic.
func (c *Comm) Recv(src, tag int) (Message, error) {
	if tag < 0 && tag != AnyTag {
		return Message{}, ErrInvalidTag
	}
	m, _, err := c.take(src, tag, -1)
	return m, err
}

// take is every receive: it removes the oldest message matching (src, tag),
// internal tags included, waiting up to d for one to arrive (for ever when
// d < 0; ok=false when d runs out). Messages that do not match are kept in
// pending, in arrival order, for later receives.
func (c *Comm) take(src, tag int, d time.Duration) (Message, bool, error) {
	for i, m := range c.pending {
		if match(m, src, tag) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			c.mRecvd.Add(1)
			return m, true, nil
		}
	}
	var deadline time.Duration
	if d >= 0 {
		deadline = c.env.Now() + d
	}
	for {
		var rec *Message
		ok := true
		if d < 0 {
			// Not GetTimeout with a negative d: a TCPEnv queue's timer
			// would fire at once.
			rec, ok = c.inbox.Get(c.env)
		} else {
			remaining := deadline - c.env.Now()
			if remaining <= 0 {
				return Message{}, false, nil
			}
			var timedOut bool
			if rec, ok, timedOut = c.inbox.GetTimeout(c.env, remaining); timedOut {
				return Message{}, false, nil
			}
		}
		if !ok {
			return Message{}, false, errors.New("mpi: inbox closed")
		}
		m := c.msgs.unbox(rec)
		if match(m, src, tag) {
			c.mRecvd.Add(1)
			return m, true, nil
		}
		c.pending = append(c.pending, m)
	}
}

// Iprobe reports whether a matching user message is available without
// receiving it.
func (c *Comm) Iprobe(src, tag int) bool {
	// Drain everything already delivered into pending, then scan.
	for {
		rec, ok := c.inbox.TryGet(c.env)
		if !ok {
			break
		}
		c.pending = append(c.pending, c.msgs.unbox(rec))
	}
	for _, m := range c.pending {
		if match(m, src, tag) {
			return true
		}
	}
	return false
}
