package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Conservative parallel coupling of several kernels.
//
// A Group runs N independent kernels — the partitions — in lockstep windows
// of virtual time. The classic conservative-DES argument makes this exact:
// if every event that crosses from one partition to another is delayed by at
// least the lookahead W (here: the minimum latency of any boundary link),
// then no event executed inside the window (H, H+W] can affect another
// partition before H+W — so all partitions may run the window concurrently
// and exchange the accumulated cross-partition messages at the barrier.
//
// Determinism does not depend on the number of worker threads: the window
// schedule is a pure function of virtual time, each partition's window is
// simulated single-threaded by its own kernel, and the messages collected at
// a barrier are merged in a canonical order (timestamp, source partition,
// source emission sequence) before delivery. Running with 1 worker or
// GOMAXPROCS workers therefore produces bit-identical results.
//
// Startup is special-cased: distributed jobs begin with a roster exchange
// (every rank publishes its contact address and waits for the full set),
// which in a monolithic simulation resolves through shared memory with zero
// latency. To reproduce that exactly, a Group starts in a per-instant
// lockstep phase — the window target is the globally earliest pending event,
// so messages posted at an instant are visible before any later instant runs
// — until every registered bulletin Board is complete, and only then switches
// to full lookahead windows.
type Group struct {
	parts    []*GroupKernel
	window   time.Duration
	horizon  time.Duration
	lockstep bool
	ran      bool

	boardMu sync.Mutex
	boards  map[string]*Board
}

// NewGroup creates a group of n fresh kernels, one per partition.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("sim: NewGroup needs at least one partition")
	}
	g := &Group{lockstep: true, boards: make(map[string]*Board)}
	for i := 0; i < n; i++ {
		g.parts = append(g.parts, &GroupKernel{g: g, idx: i, K: New()})
	}
	return g
}

// Parts reports the number of partitions.
func (g *Group) Parts() int { return len(g.parts) }

// Part returns partition i's coupling handle.
func (g *Group) Part(i int) *GroupKernel { return g.parts[i] }

// Kernel returns partition i's kernel.
func (g *Group) Kernel(i int) *Kernel { return g.parts[i].K }

// SetWindow fixes the lookahead window. It must be positive and set before
// Run when the group has more than one partition; the network coupler derives
// it from the minimum boundary-link latency.
func (g *Group) SetWindow(w time.Duration) {
	if w <= 0 {
		panic("sim: lookahead window must be positive")
	}
	g.window = w
}

// Window reports the configured lookahead.
func (g *Group) Window() time.Duration { return g.window }

// Msg is one cross-partition message: a payload that becomes visible to the
// destination partition as a kernel event at virtual instant At. Messages are
// exchanged only at window barriers; the lookahead guarantee is that At never
// precedes the next barrier, so no partition's past is ever disturbed.
type Msg struct {
	At      time.Duration
	Src     int
	Dst     int
	Seq     uint64
	Payload any
}

// GroupKernel couples one kernel into its group: an outbox for messages
// emitted during the current window and the delivery hook invoked (in kernel
// context, at Msg.At) for each message addressed to this partition.
type GroupKernel struct {
	g   *Group
	idx int
	K   *Kernel

	// OnMessage, when set, handles non-board payloads delivered to this
	// partition. It runs in kernel context at the message's timestamp.
	OnMessage func(payload any)

	seq uint64
	out []Msg
}

// Index reports the partition index.
func (p *GroupKernel) Index() int { return p.idx }

// Send queues a message for partition dst, to surface there at virtual
// instant at. It must be called from this partition's kernel context (during
// a window); delivery happens at the next barrier.
func (p *GroupKernel) Send(dst int, at time.Duration, payload any) {
	p.seq++
	p.out = append(p.out, Msg{At: at, Src: p.idx, Dst: dst, Seq: p.seq, Payload: payload})
}

// Run drives all partitions to completion using up to workers OS threads
// (clamped to the partition count; values below 1 mean 1). It returns
// ErrDeadlock, naming the stuck processes per partition, if progress stops
// while processes are still alive in any of them.
func (g *Group) Run(workers int) error {
	if g.ran {
		return fmt.Errorf("sim: group already ran")
	}
	g.ran = true
	if len(g.parts) > 1 && g.window <= 0 {
		return fmt.Errorf("sim: group has no lookahead window; call SetWindow before Run")
	}
	if len(g.parts) == 1 {
		return g.parts[0].K.Run()
	}
	for {
		target, ok := g.nextTarget()
		if !ok {
			break
		}
		g.runWindow(workers, target)
		g.horizon = target
		delivered := g.exchange()
		if g.lockstep && g.boardsComplete() {
			g.lockstep = false
		}
		if delivered == 0 && !g.anyPending() {
			break
		}
	}
	live, stuck := 0, ""
	for i, p := range g.parts {
		if n := p.K.Live(); n > 0 {
			live += n
			stuck += fmt.Sprintf("; partition %d:%s", i, p.K.stuck())
		}
	}
	if live > 0 {
		return fmt.Errorf("%w (%d live across %d partitions%s)", ErrDeadlock, live, len(g.parts), stuck)
	}
	return nil
}

// nextTarget picks the next barrier instant. In the lockstep phase it is the
// globally earliest pending event (so same-instant cross-partition messages
// are exchanged before any later instant runs); afterwards it is one
// lookahead window past the previous horizon — or the earliest pending event
// when every partition is idle beyond that, which skips empty windows without
// violating lookahead (nothing can happen before the earliest event, and its
// consequences cross at least W later).
func (g *Group) nextTarget() (time.Duration, bool) {
	earliest, any := time.Duration(0), false
	for _, p := range g.parts {
		if at, ok := p.K.NextEventAt(); ok && (!any || at < earliest) {
			earliest, any = at, true
		}
	}
	if !any {
		return 0, false
	}
	if g.lockstep {
		return earliest, true
	}
	target := g.horizon + g.window
	if earliest > target {
		target = earliest
	}
	return target, true
}

// runWindow advances every partition to target, spreading partitions over
// min(workers, len(parts)) goroutines. With one worker the partitions run
// sequentially in index order on the calling goroutine — the parallel-mode
// single-core baseline.
func (g *Group) runWindow(workers int, target time.Duration) {
	if workers > len(g.parts) {
		workers = len(g.parts)
	}
	if workers <= 1 {
		for _, p := range g.parts {
			p.K.RunUntil(target)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.parts) {
					return
				}
				g.parts[i].K.RunUntil(target)
			}
		}()
	}
	wg.Wait()
}

// exchange merges every partition's outbox in canonical order and delivers
// the messages, returning how many there were. It runs single-threaded
// between windows; the WaitGroup barrier in runWindow establishes the
// happens-before edges the race detector needs.
func (g *Group) exchange() int {
	var msgs []Msg
	for _, p := range g.parts {
		msgs = append(msgs, p.out...)
		p.out = p.out[:0]
	}
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].At != msgs[j].At {
			return msgs[i].At < msgs[j].At
		}
		if msgs[i].Src != msgs[j].Src {
			return msgs[i].Src < msgs[j].Src
		}
		return msgs[i].Seq < msgs[j].Seq
	})
	for _, m := range msgs {
		g.deliver(m)
	}
	return len(msgs)
}

func (g *Group) deliver(m Msg) {
	p := g.parts[m.Dst]
	if bm, ok := m.Payload.(boardMsg); ok {
		g.applyBoard(m.Dst, bm)
		return
	}
	fn := p.OnMessage
	if fn == nil {
		panic(fmt.Sprintf("sim: partition %d received a message but has no OnMessage handler", m.Dst))
	}
	payload := m.Payload
	p.K.Schedule(m.At, func() { fn(payload) })
}

// anyPending reports whether any partition still has pending work.
func (g *Group) anyPending() bool {
	for _, p := range g.parts {
		if _, ok := p.K.NextEventAt(); ok {
			return true
		}
	}
	return false
}

// Shutdown tears down every partition's kernel (see Kernel.Shutdown). Call it
// when abandoning a group, e.g. after an application error.
func (g *Group) Shutdown() {
	for _, p := range g.parts {
		p.K.Shutdown()
	}
}

// ---- bulletin boards ----

// Board is a replicated key/value registry used for distributed-job rosters:
// each partition holds a replica, writes broadcast to all other replicas at
// the next barrier, and while any board is incomplete the group stays in the
// per-instant lockstep phase so that roster visibility matches the
// monolithic simulation exactly.
type Board struct {
	name string
	reps []boardRep
}

type boardRep struct {
	entries  map[string]string
	expected int
}

func (r *boardRep) complete() bool {
	return r.expected > 0 && len(r.entries) >= r.expected
}

// boardMsg replicates one board write to a peer partition.
type boardMsg struct {
	board    string
	key, val string
	expected int
	hasExp   bool
}

// BoardView is one partition's handle on a board. Its methods satisfy
// transport.BulletinBoard by shape; reads are local, writes replicate at the
// next barrier.
type BoardView struct {
	b *Board
	p *GroupKernel
}

// Board returns (creating on first use) the partition's view of the named
// board. Safe to call from concurrent partition windows.
func (p *GroupKernel) Board(name string) *BoardView {
	g := p.g
	g.boardMu.Lock()
	b := g.boards[name]
	if b == nil {
		b = &Board{name: name, reps: make([]boardRep, len(g.parts))}
		for i := range b.reps {
			b.reps[i].entries = make(map[string]string)
		}
		g.boards[name] = b
	}
	g.boardMu.Unlock()
	return &BoardView{b: b, p: p}
}

// SetExpected declares how many entries the board will carry when complete.
func (v *BoardView) SetExpected(n int) {
	v.b.reps[v.p.idx].expected = n
	v.broadcast(boardMsg{board: v.b.name, expected: n, hasExp: true})
}

// Put publishes one entry: immediately visible locally, visible to every
// other partition after the next barrier.
func (v *BoardView) Put(key, value string) {
	v.b.reps[v.p.idx].entries[key] = value
	v.broadcast(boardMsg{board: v.b.name, key: key, val: value})
}

// Get reads an entry from the local replica.
func (v *BoardView) Get(key string) (string, bool) {
	val, ok := v.b.reps[v.p.idx].entries[key]
	return val, ok
}

// Complete reports whether the local replica holds all expected entries.
func (v *BoardView) Complete() bool {
	rep := &v.b.reps[v.p.idx]
	return rep.complete()
}

func (v *BoardView) broadcast(m boardMsg) {
	now := v.p.K.Now()
	for i := range v.p.g.parts {
		if i != v.p.idx {
			v.p.Send(i, now, m)
		}
	}
}

// applyBoard merges one replicated write into dst's replica. It runs at the
// barrier (single-threaded); readers only observe the replica from their own
// kernel's events afterwards, so no event scheduling is needed.
func (g *Group) applyBoard(dst int, m boardMsg) {
	g.boardMu.Lock()
	b := g.boards[m.board]
	if b == nil {
		b = &Board{name: m.board, reps: make([]boardRep, len(g.parts))}
		for i := range b.reps {
			b.reps[i].entries = make(map[string]string)
		}
		g.boards[m.board] = b
	}
	g.boardMu.Unlock()
	rep := &b.reps[dst]
	if m.hasExp {
		rep.expected = m.expected
	} else {
		rep.entries[m.key] = m.val
	}
}

// boardsComplete reports whether every replica of every board is complete
// (vacuously true with no boards), which ends the lockstep bootstrap phase.
func (g *Group) boardsComplete() bool {
	g.boardMu.Lock()
	defer g.boardMu.Unlock()
	for _, b := range g.boards {
		for i := range b.reps {
			if !b.reps[i].complete() {
				return false
			}
		}
	}
	return true
}
