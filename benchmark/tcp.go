package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"nxcluster/internal/fleet"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// tcpRig is the real relay pair on loopback sockets plus the sink the
// clients talk to, all in this process: an inner server, an outer server
// spliced through it, and a plain server outside the "firewall".
type tcpRig struct {
	env   *transport.TCPEnv
	inner *proxy.InnerServer
	outer *proxy.OuterServer
	cfg   proxy.Config
	sink  transport.Listener
}

// Sink modes, selected by the first byte a client sends. In ack mode a
// 4-byte big-endian chunk size follows; the sink echoes the mode byte and
// from then on answers every chunk with one byte, the XOR of the chunk's
// first and last byte, which tells the client that framing and order
// survived without the sink touching every byte. Any other first byte
// starts echo mode and is itself echoed.
const (
	sinkAck  = 'A'
	sinkEcho = 'E'
)

// serveOn runs a daemon's Serve on env and returns the address it bound.
func serveOn(env *transport.TCPEnv, name string, serve func(e transport.Env, ready func(string)) error) (string, error) {
	addr, failed := make(chan string, 1), make(chan error, 1)
	env.Spawn(name, func(e transport.Env) {
		if err := serve(e, func(a string) { addr <- a }); err != nil {
			failed <- err
		}
	})
	select {
	case a := <-addr:
		return a, nil
	case err := <-failed:
		return "", fmt.Errorf("%s: %w", name, err)
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("%s: did not start listening", name)
	}
}

// startRig boots the relay pair and the sink.
func startRig() (*tcpRig, error) {
	r := &tcpRig{env: transport.NewTCPEnv("localhost")}
	r.inner = proxy.NewInnerServer(proxy.RelayConfig{})
	innerAddr, err := serveOn(r.env, "inner", func(e transport.Env, ready func(string)) error { return r.inner.Serve(e, 0, ready) })
	if err != nil {
		return nil, err
	}
	r.outer = proxy.NewOuterServer(innerAddr, proxy.RelayConfig{})
	outerAddr, err := serveOn(r.env, "outer", func(e transport.Env, ready func(string)) error { return r.outer.Serve(e, 0, ready) })
	if err != nil {
		r.inner.Close(r.env)
		return nil, err
	}
	r.cfg = proxy.Config{OuterServer: outerAddr, InnerServer: innerAddr}
	r.sink, err = r.env.Listen(0)
	if err != nil {
		r.stop()
		return nil, err
	}
	r.env.Spawn("sink", func(e transport.Env) {
		for {
			c, err := r.sink.Accept(e)
			if err != nil {
				return
			}
			conn := c
			e.Spawn("sink-conn", func(e2 transport.Env) { serveSink(e2, conn) })
		}
	})
	return r, nil
}

// stop closes the listeners; the per-connection goroutines end as their
// connections close.
func (r *tcpRig) stop() {
	if r.sink != nil {
		_ = r.sink.Close(r.env)
	}
	if r.outer != nil {
		r.outer.Close(r.env)
	}
	r.inner.Close(r.env)
}

// serveSink serves one sink connection until the peer closes it.
func serveSink(env transport.Env, c transport.Conn) {
	defer c.Close(env)
	buf := make([]byte, 64<<10)
	n, err := c.Read(env, buf)
	if err != nil || n == 0 {
		return
	}
	if buf[0] != sinkAck {
		for {
			if _, err := c.Write(env, buf[:n]); err != nil {
				return
			}
			if n, err = c.Read(env, buf); err != nil {
				return
			}
		}
	}
	// The client sends the mode byte and the size together and waits for
	// the sink to answer before its first chunk, so a short read here can
	// only be the header arriving in pieces.
	st := transport.Stream{Env: env, Conn: c}
	hdr := make([]byte, 5)
	got := copy(hdr, buf[:n])
	if _, err := io.ReadFull(st, hdr[got:]); err != nil {
		return
	}
	size := int(binary.BigEndian.Uint32(hdr[1:]))
	if size < 1 {
		return
	}
	if _, err := c.Write(env, hdr[:1]); err != nil {
		return
	}
	pos := 0
	var first byte
	for {
		n, err := c.Read(env, buf)
		if err != nil {
			return
		}
		if pos == 0 {
			first = buf[0]
		}
		pos += n
		if pos > size {
			return // chunks are lock-step: more than one in flight is a bug
		}
		if pos == size {
			if _, err := c.Write(env, []byte{first ^ buf[n-1]}); err != nil {
				return
			}
			pos = 0
		}
	}
}

// dialFunc opens a connection to the sink, direct or through the relay.
type dialFunc func() (transport.Conn, error)

func (r *tcpRig) direct() (transport.Conn, error) { return r.env.Dial(r.sink.Addr()) }

func (r *tcpRig) proxied() (transport.Conn, error) {
	return proxy.NXProxyConnect(r.env, r.cfg, r.sink.Addr())
}

// phase is what one fixed-count loop on one connection measured.
type phase struct {
	ops     int
	bad     int       // operations that failed or came back wrong
	seconds float64   // whole loop
	usec    []float64 // per-operation latency
	err     error     // first transport error; the loop stops there
}

func (ph *phase) p50() float64 { return median(ph.usec) }

// pingPong sends rounds messages of size bytes cut from payload on an echo
// connection and checks every reply byte for byte.
func pingPong(env transport.Env, dial dialFunc, payload []byte, size, rounds int) phase {
	ph := phase{ops: rounds, usec: make([]float64, 0, rounds)}
	c, err := dial()
	if err != nil {
		ph.err, ph.bad = err, rounds
		return ph
	}
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	reply := make([]byte, size)
	if _, err := st.Write([]byte{sinkEcho}); err == nil {
		_, err = io.ReadFull(st, reply[:1])
	}
	if err != nil {
		ph.err, ph.bad = err, rounds
		return ph
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		off := (i * 61) % (len(payload) - size)
		msg := payload[off : off+size]
		t0 := time.Now()
		if _, err := st.Write(msg); err != nil {
			ph.err, ph.bad = err, ph.bad+rounds-i
			break
		}
		if _, err := io.ReadFull(st, reply); err != nil {
			ph.err, ph.bad = err, ph.bad+rounds-i
			break
		}
		ph.usec = append(ph.usec, float64(time.Since(t0).Nanoseconds())/1e3)
		if string(reply) != string(msg) {
			ph.bad++
		}
	}
	ph.seconds = time.Since(start).Seconds()
	return ph
}

// chunked sends count chunks of size bytes on an ack connection, waiting for
// the sink's one-byte answer to each. The chunk's edge bytes change every
// time, so a stale or misframed answer does not match.
func chunked(env transport.Env, dial dialFunc, payload []byte, size, count int) phase {
	ph := phase{ops: count, usec: make([]float64, 0, count)}
	c, err := dial()
	if err != nil {
		ph.err, ph.bad = err, count
		return ph
	}
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	hdr := []byte{sinkAck, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], uint32(size))
	ack := make([]byte, 1)
	if _, err := st.Write(hdr); err == nil {
		_, err = io.ReadFull(st, ack)
	}
	if err != nil {
		ph.err, ph.bad = err, count
		return ph
	}
	chunk := append([]byte(nil), payload[:size]...)
	start := time.Now()
	for i := 0; i < count; i++ {
		chunk[0], chunk[size-1] = payload[(i*7)%len(payload)], payload[(i*13+5)%len(payload)]
		t0 := time.Now()
		if _, err := st.Write(chunk); err != nil {
			ph.err, ph.bad = err, ph.bad+count-i
			break
		}
		if _, err := io.ReadFull(st, ack); err != nil {
			ph.err, ph.bad = err, ph.bad+count-i
			break
		}
		ph.usec = append(ph.usec, float64(time.Since(t0).Nanoseconds())/1e3)
		if ack[0] != chunk[0]^chunk[size-1] {
			ph.bad++
		}
	}
	ph.seconds = time.Since(start).Seconds()
	return ph
}

// seededBytes returns n bytes drawn from the fleet engine's splitmix64
// stream, the repository's seeded generator.
func seededBytes(seed uint64, n int) []byte {
	rng := fleet.NewRNG(seed)
	out := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], rng.Uint64())
	}
	return out[:n]
}
