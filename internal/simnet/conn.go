package simnet

import (
	"fmt"
	"io"
	"math"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

var (
	errFirewallDenied = transport.ErrFirewallDenied
)

// listener is a bound port's accept queue.
type listener struct {
	node    *Node
	port    int
	pending *sim.Chan[*conn]
	closed  bool
}

// Addr implements transport.Listener.
func (l *listener) Addr() string { return transport.JoinAddr(l.node.name, l.port) }

// Accept implements transport.Listener.
func (l *listener) Accept(env transport.Env) (transport.Conn, error) {
	p := procOf(env, "Accept")
	c, err := l.pending.Recv(p)
	if err != nil {
		return nil, transport.ErrClosed
	}
	return c, nil
}

// Close implements transport.Listener.
func (l *listener) Close(env transport.Env) error {
	if l.closed {
		return transport.ErrClosed
	}
	l.closed = true
	delete(l.node.listeners, l.port)
	l.pending.Close()
	return nil
}

// listen binds a listener on the node.
func (nd *Node) listen(port int) (*listener, error) {
	if !nd.isHost {
		return nil, fmt.Errorf("simnet: %s is not a host", nd.name)
	}
	if nd.crashed {
		return nil, fmt.Errorf("simnet: listen on %s: %w", nd.name, transport.ErrHostDown)
	}
	if port == 0 {
		for nd.listeners[nd.nextPort] != nil {
			nd.nextPort++
		}
		port = nd.nextPort
		nd.nextPort++
	}
	if nd.listeners[port] != nil {
		return nil, fmt.Errorf("simnet: %s: port %d already in use", nd.name, port)
	}
	l := &listener{node: nd, port: port, pending: sim.NewChan[*conn](nd.net.K, math.MaxInt32)}
	nd.listeners[port] = l
	return l, nil
}

// inSeg is one received segment awaiting Read; off marks how much of it has
// been consumed.
type inSeg struct {
	buf []byte
	off int
}

// conn is one endpoint of an established virtual stream.
type conn struct {
	node   *Node
	local  string
	remote string
	path   []*linkDir // toward the peer
	peer   *conn

	// Received segments, FIFO; inboxHead advances instead of shifting, and
	// fully-consumed buffers return to the network's segment pool.
	inbox        []inSeg
	inboxHead    int
	readCond     *sim.Cond
	credit       int
	creditCond   *sim.Cond
	closed       bool // local Close called
	remoteClosed bool // peer FIN received
	aborted      bool // local Abort called or host crashed
	remoteReset  bool // peer RST received: the stream broke mid-flight

	// TCP-Reno flow model state (nil/zero unless the network's flow model
	// was enabled when this connection was dialed; see flow.go).
	flow     *flowState
	sendSeq  int64    // next byte sequence this endpoint will send
	recvNext int64    // next in-order byte sequence expected
	ooo      []oooSeg // out-of-order segments awaiting retransmitted holes
	finSeq   int64    // peer FIN sequence; -1 until received

	// bag is the connection's trace baggage: the dialer's ambient trace
	// context, shared with the peer endpoint so the accepting side can
	// parent its spans under the caller's job. Out of band only — it never
	// adds wire bytes, so it cannot perturb simulated timing.
	bag obs.TraceContext
}

// TraceBaggage returns the trace context attached to this connection
// (obs.BaggageOf is the portable extraction).
func (c *conn) TraceBaggage() obs.TraceContext { return c.bag }

func (c *conn) pushInbox(seg []byte) {
	c.inbox = append(c.inbox, inSeg{buf: seg})
}

// dial performs the connection handshake from nd to addr, blocking p for one
// path round trip. Firewall denial surfaces immediately (reject semantics;
// a drop-style firewall would instead time the dialer out — the distinction
// does not affect any experiment). tctx is the dialing process's ambient
// trace context: the dial span parents under it and the new connection
// carries it as baggage for the accepting side.
func (nd *Node) dial(p *sim.Proc, tctx obs.TraceContext, addr string) (transport.Conn, error) {
	host, port, err := transport.SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	dst := nd.net.nodes[host]
	if dst == nil || !dst.isHost {
		return nil, fmt.Errorf("simnet: dial %s: %w", addr, transport.ErrNoRoute)
	}
	if err := nd.net.checkFirewalls(nd, dst, port); err != nil {
		return nil, err
	}
	path := nd.net.route(nd, dst)
	if path == nil && nd != dst {
		return nil, fmt.Errorf("simnet: dial %s: %w", addr, transport.ErrNoRoute)
	}

	var dialed *conn
	var dialErr error
	n := nd.net
	var span obs.TraceContext
	if o := n.Obs; o != nil {
		span = o.BeginChild(n.K.Now(), tctx, "net", "dial", nd.name, obs.Str("addr", addr))
	}
	done := sim.NewEvent(nd.net.K)
	n.send(path, ctlSize, func() {
		if nd.crashed {
			// The dialer's host died while the SYN was in flight; nobody is
			// left to answer to, so the attempt evaporates.
			return
		}
		if dst.crashed {
			n.send(reversePath(path), ctlSize, func() {
				dialErr = transport.ErrHostDown
				done.Set()
			})
			return
		}
		l := dst.listeners[port]
		if l == nil || l.closed {
			n.send(reversePath(path), ctlSize, func() {
				dialErr = transport.ErrRefused
				done.Set()
			})
			return
		}
		n.nextConn++
		localAddr := transport.JoinAddr(nd.name, 50000+n.nextConn)
		remoteAddr := transport.JoinAddr(dst.name, port)
		cDial := &conn{
			node: nd, local: localAddr, remote: remoteAddr, path: path,
			readCond: sim.NewCond(n.K), credit: DefaultWindow, creditCond: sim.NewCond(n.K),
			finSeq: -1,
		}
		cAcc := &conn{
			node: dst, local: remoteAddr, remote: localAddr, path: reversePath(path),
			readCond: sim.NewCond(n.K), credit: DefaultWindow, creditCond: sim.NewCond(n.K),
			finSeq: -1,
		}
		cDial.peer, cAcc.peer = cAcc, cDial
		cDial.bag, cAcc.bag = tctx, tctx
		if n.flowOn && len(path) > 0 {
			cDial.flow = n.newFlowState(cDial.path, localAddr+">"+remoteAddr)
			cAcc.flow = n.newFlowState(cAcc.path, remoteAddr+">"+localAddr)
		}
		if err := l.pending.TrySend(cAcc); err != nil {
			n.send(reversePath(path), ctlSize, func() {
				dialErr = transport.ErrRefused
				done.Set()
			})
			return
		}
		nd.trackConn(cDial)
		dst.trackConn(cAcc)
		n.send(reversePath(path), ctlSize, func() {
			dialed = cDial
			done.Set()
		})
	})
	done.Wait(p)
	if o := n.Obs; o != nil {
		if dialErr != nil {
			o.EndSpan(n.K.Now(), span, "net", "dial", nd.name, obs.Str("err", dialErr.Error()))
		} else {
			o.EndSpan(n.K.Now(), span, "net", "dial", nd.name, obs.Str("addr", addr))
		}
	}
	if dialErr != nil {
		return nil, fmt.Errorf("simnet: dial %s: %w", addr, dialErr)
	}
	return dialed, nil
}

// Read implements transport.Conn.
func (c *conn) Read(env transport.Env, b []byte) (int, error) {
	p := procOf(env, "Read")
	for {
		if c.inboxHead < len(c.inbox) {
			seg := &c.inbox[c.inboxHead]
			n := copy(b, seg.buf[seg.off:])
			seg.off += n
			if seg.off == len(seg.buf) {
				c.node.net.putSeg(seg.buf)
				seg.buf = nil
				c.inboxHead++
				if c.inboxHead == len(c.inbox) {
					c.inbox = c.inbox[:0]
					c.inboxHead = 0
				}
			}
			return n, nil
		}
		if c.remoteReset {
			return 0, transport.ErrReset
		}
		if c.remoteClosed {
			return 0, io.EOF
		}
		if c.aborted {
			return 0, transport.ErrReset
		}
		if c.closed {
			return 0, transport.ErrClosed
		}
		c.readCond.Wait(p)
	}
}

// Write implements transport.Conn. Data is segmented at the network MTU;
// each segment consumes window credit that returns when the segment lands in
// the peer's buffer.
func (c *conn) Write(env transport.Env, b []byte) (int, error) {
	p := procOf(env, "Write")
	total := 0
	mtu := c.node.net.MTU
	for len(b) > 0 {
		if c.aborted || c.remoteReset {
			return total, transport.ErrReset
		}
		if c.closed || c.remoteClosed {
			return total, transport.ErrClosed
		}
		chunk := len(b)
		if chunk > mtu {
			chunk = mtu
		}
		for c.credit < chunk || (c.flow != nil && c.flow.inflight+chunk > c.flow.cwnd) {
			if c.aborted || c.remoteReset {
				return total, transport.ErrReset
			}
			if c.closed || c.remoteClosed {
				return total, transport.ErrClosed
			}
			c.creditCond.Wait(p)
		}
		c.credit -= chunk
		seg := c.node.net.getSeg(chunk)
		copy(seg, b[:chunk])
		c.node.net.sendData(c, seg)
		b = b[chunk:]
		total += chunk
	}
	return total, nil
}

// Close implements transport.Conn: both directions shut down; the peer
// reads EOF after draining, and further writes on either end fail.
func (c *conn) Close(env transport.Env) error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.node.untrackConn(c)
	c.readCond.Broadcast()
	c.creditCond.Broadcast()
	fin := c.sendSeq // flow mode: EOF takes effect only after all bytes land
	peer := c.peer
	c.node.net.send(c.path, ctlSize, func() {
		peer.deliverFin(fin)
	})
	return nil
}

// deliverFin is the receiving side of a FIN control packet. On flow-modeled
// connections the FIN can overtake retransmitted data, so EOF is deferred
// until the byte stream is complete up to the FIN sequence.
func (c *conn) deliverFin(fin int64) {
	if c.flow != nil && c.recvNext < fin {
		c.finSeq = fin
		return
	}
	c.remoteClosed = true
	c.readCond.Broadcast()
	c.creditCond.Broadcast()
}

// Abort implements transport.Aborter: the connection is torn down abruptly
// (TCP RST). The local end is dead immediately; the RST propagates along the
// path and makes the peer's pending and future Read/Write calls fail with
// transport.ErrReset instead of a clean EOF.
func (c *conn) Abort(env transport.Env) error {
	procOf(env, "Abort") // assert the caller belongs to this network
	if c.closed {
		return nil
	}
	c.reset()
	peer := c.peer
	c.node.net.send(c.path, ctlSize, func() {
		peer.deliverReset()
	})
	return nil
}

// reset marks the local endpoint dead: buffered data is discarded, blocked
// readers and writers wake with ErrReset. Used by Abort and by host crashes.
func (c *conn) reset() {
	c.closed, c.aborted = true, true
	for i := c.inboxHead; i < len(c.inbox); i++ {
		c.node.net.putSeg(c.inbox[i].buf)
		c.inbox[i].buf = nil
	}
	c.inbox = c.inbox[:0]
	c.inboxHead = 0
	for i := range c.ooo {
		c.node.net.putSeg(c.ooo[i].buf)
		c.ooo[i].buf = nil
	}
	c.ooo = nil
	c.node.untrackConn(c)
	c.readCond.Broadcast()
	c.creditCond.Broadcast()
}

// deliverReset is the receiving side of an RST control packet.
func (c *conn) deliverReset() {
	c.remoteReset = true
	c.readCond.Broadcast()
	c.creditCond.Broadcast()
}

// LocalAddr implements transport.Conn.
func (c *conn) LocalAddr() string { return c.local }

// RemoteAddr implements transport.Conn.
func (c *conn) RemoteAddr() string { return c.remote }
