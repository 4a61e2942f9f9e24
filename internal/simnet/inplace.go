package simnet

import (
	"io"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// The two per-message daemons — a relay pump and a stream reader — run as
// in-place steps (sim.Proc.SleepEach) over the connection's non-blocking
// cores: where the blocking loop would park, a step enlists the process on
// the condition it waits for (readCond, the host's CPUs, creditCond) or
// sleeps, and its wakeup runs the next step in place. Events, sequence
// numbers and ready order are the blocking loop's; the coroutine switches
// are not. Each driver hands back to its process on EOF, error or reset, so
// teardown runs in process context.

// Relay implements transport.Relay's in-place path. It declines (false)
// connections of another network implementation.
func (e *Env) Relay(src, dst transport.Conn, pump *transport.Pump) (bool, error) {
	s, ok1 := src.(*conn)
	d, ok2 := dst.(*conn)
	if !ok1 || !ok2 {
		return false, nil
	}
	r := &relay{e: e, src: s, dst: d, pump: pump}
	r.step = r.run
	next := r.run()
	for {
		e.p.SleepEach(next, r.step)
		if r.at == relayDone {
			return true, r.err
		}
		// relayYield: Compute's zero-length sleep yields in the process.
		e.p.Yield()
		e.node.cpus.Release()
		r.at, r.woke = relayWrite, false
		next = r.run()
	}
}

// Where a relay's process would resume if it ran the blocking loop.
const (
	relayRead  = iota // in src.Read
	relayCPU          // in Compute's Acquire: the wakeup hands it a CPU
	relaySlept        // in Compute's Sleep
	relayWrite        // in dst.Write, waiting for credit
	relayYield        // handed back: Compute's Sleep(0) is the process's
	relayDone         // handed back: src ended or a write failed
)

// relay is one in-place relay pump.
type relay struct {
	e        *Env
	src, dst *conn
	pump     *transport.Pump
	step     func() time.Duration // run, bound once
	at       int
	n, off   int  // the buffer held and how much of it is written
	woke     bool // the write waited for credit
	err      error
}

// run carries the relay loop from where the process would resume to its
// next block.
func (r *relay) run() time.Duration {
	p, pump := r.e.p, r.pump
	for {
		switch r.at {
		case relayRead:
			n, err := r.src.tryRead(pump.Buf)
			if err == errWouldBlock { //nolint:errorlint // sentinel identity
				r.src.readCond.Enlist(p)
				return sim.Parked
			}
			if err != nil {
				if err != io.EOF { //nolint:errorlint // the conn's own sentinel
					r.err = err
				}
				r.at = relayDone
				return 0
			}
			r.n, r.off = n, 0
			if pump.Recv != nil {
				pump.Recv(n)
			}
			if pump.PerBuffer <= 0 {
				r.at, r.woke = relayWrite, false
				continue
			}
			r.at = relayCPU
			if cpus := r.e.node.cpus; !cpus.TryAcquire() {
				cpus.Enlist(p)
				return sim.Parked
			}
		case relayCPU:
			sc := r.e.scaled(pump.PerBuffer)
			if sc <= 0 {
				r.at = relayYield
				return 0
			}
			r.at = relaySlept
			return sc
		case relaySlept:
			r.e.node.cpus.Release()
			r.at, r.woke = relayWrite, false
		case relayWrite:
			n, err := r.dst.tryWrite(pump.Buf[r.off:r.n], r.woke)
			r.off += n
			if err == errWouldBlock { //nolint:errorlint // sentinel identity
				r.dst.creditCond.Enlist(p)
				r.woke = true
				return sim.Parked
			}
			if err != nil {
				r.err = err
				r.at = relayDone
				return 0
			}
			if pump.Fwd != nil {
				pump.Fwd(r.n)
			}
			r.at = relayRead
		}
	}
}

// ReadEach implements transport.ReadEach's in-place path. It declines
// (false) connections of another network implementation.
func (e *Env) ReadEach(c transport.Conn, fill func(n int) []byte) (bool, error) {
	sc, ok := c.(*conn)
	if !ok {
		return false, nil
	}
	r := &reader{p: e.p, c: sc, fill: fill}
	if r.b = fill(0); r.b != nil {
		e.p.SleepEach(r.run(), r.run)
	}
	return true, r.err
}

// reader is one in-place ReadEach.
type reader struct {
	p    *sim.Proc
	c    *conn
	fill func(n int) []byte
	b    []byte
	err  error
}

// run reads until it would block (and enlists for data), the stream ends,
// or fill stops it.
func (r *reader) run() time.Duration {
	for {
		n, err := r.c.tryRead(r.b)
		if err == errWouldBlock { //nolint:errorlint // sentinel identity
			r.c.readCond.Enlist(r.p)
			return sim.Parked
		}
		if err != nil {
			r.err = err
			return 0
		}
		if r.b = r.fill(n); r.b == nil {
			return 0
		}
	}
}
