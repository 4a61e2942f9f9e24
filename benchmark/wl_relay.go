package main

import (
	"fmt"
	"io"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// relayTCP drives the real Nexus Proxy relay over loopback sockets with one
// closed-loop client: 64-byte ping-pong on one proxied connection
// (per-buffer-bound), then 1 MiB chunks each answered by one byte
// (copy-bound), then 4 KiB chunks (the paper's 4 KB Table 2 row). Those three
// proxied phases are the end-to-end region. Payload bytes come from the seed;
// echoes are compared byte for byte and every chunk answer is checked. The
// traced pass goes on to repeat the script on a direct connection to the same
// sink, for the transport layer's figures and the denominators of the proxy
// ratios, and to open and close relay chains (connectPhases).
type relayTCP struct {
	cfg                    runConfig
	rounds, chunks, smalls int
	connects, binds        int // traced pass only
	payload                []byte
	rig                    *tcpRig
}

const (
	bulkChunk  = 1 << 20
	smallChunk = 4 << 10
)

func relayDef() workloadDef {
	return workloadDef{
		name:      "relay-tcp",
		workAlias: "relay_mb_s", opAlias: "relay_rtt_p50",
		work:     "MB relayed in the 1 MiB-chunk phase (10^6 bytes)",
		op:       "one 64-byte round trip on an established proxied connection",
		loopback: true,
		make: func(cfg runConfig) (workload, error) {
			return &relayTCP{
				cfg:    cfg,
				rounds: scaled(cfg, 25_000, 500), chunks: scaled(cfg, 400, 8), smalls: scaled(cfg, 20_000, 400),
				connects: scaled(cfg, 2_000, 40), binds: scaled(cfg, 300, 10),
				payload: seededBytes(cfg.seed, bulkChunk+smallChunk),
			}, nil
		},
		probes: []probe{{"nexus.rsr_tcp", probeNexusRSRTCP}},
	}
}

// setup boots the relay pair and the sink, then warms both paths with a
// tenth of the script and pushes the whole seeded payload through the relay
// in 32 KiB echoes, compared byte for byte.
func (w *relayTCP) setup(p *pass) error {
	rig, err := startRig()
	if err != nil {
		return err
	}
	w.rig = rig
	for _, dial := range []dialFunc{rig.direct, rig.proxied} {
		for _, ph := range []phase{
			pingPong(rig.env, dial, w.payload, 64, w.rounds/10),
			chunked(rig.env, dial, w.payload, bulkChunk, w.chunks/10+1),
			chunked(rig.env, dial, w.payload, smallChunk, w.smalls/10),
			pingPong(rig.env, dial, w.payload, 32<<10, 32),
		} {
			if ph.err != nil {
				return fmt.Errorf("warm-up: %w", ph.err)
			}
			if ph.bad > 0 {
				return fmt.Errorf("warm-up: %d of %d replies did not match what was sent", ph.bad, ph.ops)
			}
		}
	}
	return nil
}

func (w *relayTCP) run(p *pass) error {
	env := w.rig.env
	script := func(dial dialFunc, name string) (rtt, bulk, small phase, bulkAllocs float64) {
		id := p.tr.begin(name+".rtt64", p.span)
		rtt = pingPong(env, dial, w.payload, 64, w.rounds)
		p.tr.end(id)
		id = p.tr.begin(name+".bulk", p.span)
		c := measure(func() { bulk = chunked(env, dial, w.payload, bulkChunk, w.chunks) })
		p.tr.end(id)
		id = p.tr.begin(name+".small", p.span)
		small = chunked(env, dial, w.payload, smallChunk, w.smalls)
		p.tr.end(id)
		return rtt, bulk, small, c.mallocs
	}
	var pRTT, pBulk, pSmall phase
	var allocs float64
	p.timed(func() {
		pRTT, pBulk, pSmall, allocs = script(w.rig.proxied, "proxied")
	})
	tally := func(phases ...phase) {
		for _, ph := range phases {
			p.attempted += ph.ops
			if ph.err != nil {
				p.fail(ph.bad, "relay-tcp: %v", ph.err)
			} else if ph.bad > 0 {
				p.fail(ph.bad, "relay-tcp: %d of %d replies did not match what was sent", ph.bad, ph.ops)
			}
		}
	}
	tally(pRTT, pBulk, pSmall)
	mbps := func(ph phase, size int) float64 { return float64(len(ph.usec)) * float64(size) / 1e6 / ph.seconds }
	p.work += float64(len(pBulk.usec)) * bulkChunk / 1e6
	p.workSec += pBulk.seconds
	for _, us := range pRTT.usec {
		p.opsMS = append(p.opsMS, us/1e3)
	}
	if p.tr == nil {
		return nil
	}

	// The traced pass repeats the script on a direct connection, for the
	// transport layer's own figures and the proxy ratios' denominators.
	dRTT, dBulk, dSmall, _ := script(w.rig.direct, "direct")
	tally(dRTT, dBulk, dSmall)
	p.set("transport.rtt64_p50_us", dRTT.p50())
	p.set("transport.mb_s.1m", mbps(dBulk, bulkChunk))
	p.set("transport.mb_s.4k", mbps(dSmall, smallChunk))
	p.set("proxy.rtt64_p50_us", pRTT.p50())
	p.set("proxy.rtt64_p99_us", percentile(pRTT.usec, 99))
	p.set("proxy.relay_mb_s.1m", mbps(pBulk, bulkChunk))
	p.set("proxy.relay_mb_s.4k", mbps(pSmall, smallChunk))
	p.set("proxy.rtt_x", pRTT.p50()/dRTT.p50())
	p.set("proxy.bulk_x", mbps(pBulk, bulkChunk)/mbps(dBulk, bulkChunk))
	p.set("proxy.relay_allocs_per_mb", allocs/(float64(w.chunks)*bulkChunk/1e6))
	p.set("proxy.relay_bytes", float64(w.rig.outer.Stats().Bytes))
	w.connectPhases(p)
	return nil
}

// echoByte is the i-th byte a connection sends: seeded, and never the sink's
// ack-mode selector.
func (w *relayTCP) echoByte(i int) byte { return w.payload[i%len(w.payload)] | 0x80 }

// open dials, sends one byte, reads it back and closes; it returns the time
// to the echoed byte.
func (w *relayTCP) open(dial dialFunc, i int) (usec float64, ok bool, err error) {
	env := w.rig.env
	t0 := time.Now()
	c, err := dial()
	if err != nil {
		return 0, false, err
	}
	defer c.Close(env)
	b := []byte{w.echoByte(i)}
	got := make([]byte, 1)
	if _, err := c.Write(env, b); err != nil {
		return 0, false, err
	}
	if _, err := io.ReadFull(transport.Stream{Env: env, Conn: c}, got); err != nil {
		return 0, false, err
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3, got[0] == b[0], nil
}

// opens runs n opens one after another.
func (w *relayTCP) opens(dial dialFunc, n int) phase {
	ph := phase{ops: n, usec: make([]float64, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		us, ok, err := w.open(dial, i)
		if err != nil {
			ph.err, ph.bad = err, ph.bad+n-i
			break
		}
		ph.usec = append(ph.usec, us)
		if !ok {
			ph.bad++
		}
	}
	ph.seconds = time.Since(start).Seconds()
	return ph
}

// passive runs n passive opens: the firewalled side binds through the relay
// and accepts, an outside peer dials the advertised outer address.
func (w *relayTCP) passive(tr *tracer, parent, n int) phase {
	env := w.rig.env
	ph := phase{ops: n, usec: make([]float64, 0, n)}
	type accepted struct {
		b   byte
		err error
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id := tr.begin("proxy.NXProxyBind", parent)
		pl, err := proxy.NXProxyBind(env, w.rig.cfg)
		tr.end(id)
		if err != nil {
			ph.err, ph.bad = err, ph.bad+n-i
			break
		}
		done := make(chan accepted, 1)
		env.Spawn("pa", func(e transport.Env) {
			c, err := proxy.NXProxyAccept(e, pl)
			if err != nil {
				done <- accepted{err: err}
				return
			}
			defer c.Close(e)
			b := make([]byte, 1)
			if _, err := io.ReadFull(transport.Stream{Env: e, Conn: c}, b); err != nil {
				done <- accepted{err: err}
				return
			}
			_, err = c.Write(e, b)
			done <- accepted{b: b[0], err: err}
		})
		_, ok, err := w.open(func() (transport.Conn, error) { return env.Dial(pl.Addr()) }, i)
		acc := <-done
		_ = pl.Close(env)
		if err == nil {
			err = acc.err
		}
		if err != nil {
			ph.err, ph.bad = err, ph.bad+n-i
			break
		}
		// Timed from the bind, not from the outside peer's dial.
		ph.usec = append(ph.usec, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok || acc.b != w.echoByte(i) {
			ph.bad++
		}
	}
	ph.seconds = time.Since(start).Seconds()
	return ph
}

// connectPhases sets relay chains up and tears them down: direct dials to
// the sink for the denominator, active opens (NXProxyConnect to the first
// echoed byte, then close) and passive opens (NXProxyBind, a dial from
// outside to the advertised address, NXProxyAccept, one byte echoed, close).
// Where the timed phases are bound by copies and buffers, these are bound by
// the connections and control exchanges a chain takes.
//
// They run in the traced pass only, after the end-to-end region, and feed
// per-layer metrics. They do not gate: on this two-core host their medians
// moved by a quarter between identical runs, and a passive open binds two
// fresh listening ports, which the kernel's bind(0) search was measured to
// slow tenfold (0.4 ms to 3 ms) once the previous minute's runs had left
// their TIME_WAIT sockets on listening ports.
func (w *relayTCP) connectPhases(p *pass) {
	for _, ph := range []phase{
		w.opens(w.rig.direct, w.connects/10),
		w.opens(w.rig.proxied, w.connects/10),
		w.passive(nil, noSpan, w.binds/10),
	} {
		if ph.err != nil || ph.bad > 0 {
			p.fail(max(ph.bad, 1), "relay-tcp: connect warm-up: %d of %d opens wrong, error %v", ph.bad, ph.ops, ph.err)
			return
		}
	}
	id := p.tr.begin("direct.connect", p.span)
	direct := w.opens(w.rig.direct, w.connects)
	p.tr.end(id)
	id = p.tr.begin("proxied.connect", p.span)
	active := w.opens(w.rig.proxied, w.connects)
	p.tr.end(id)
	id = p.tr.begin("proxied.passive", p.span)
	bound := w.passive(p.tr, id, w.binds)
	p.tr.end(id)
	for _, ph := range []phase{direct, active, bound} {
		p.attempted += ph.ops
		if ph.err != nil {
			p.fail(ph.bad, "relay-tcp: %v", ph.err)
		} else if ph.bad > 0 {
			p.fail(ph.bad, "relay-tcp: %d of %d echoes did not match", ph.bad, ph.ops)
		}
	}
	p.set("transport.dial_p50_us", direct.p50())
	p.set("proxy.connect_p50_us", active.p50())
	p.set("proxy.connect_p99_us", percentile(active.usec, 99))
	p.set("proxy.connect_x", active.p50()/direct.p50())
	p.set("proxy.bind_accept_p50_us", bound.p50())
}

func (w *relayTCP) teardown() {
	if w.rig != nil {
		w.rig.stop()
		w.rig = nil
	}
}

// probeNexusRSRTCP times a Nexus remote service request over loopback
// sockets: Startpoint.Send to the handler's reply on a channel.
func probeNexusRSRTCP(c *probeCtx) error {
	n := scaled(c.cfg, 20_000, 200)
	env := transport.NewTCPEnv("localhost")
	ctx, err := nexus.Init(env, proxy.Config{})
	if err != nil {
		return err
	}
	defer ctx.Shutdown(env)
	got := make(chan int64, 1)
	ep := ctx.NewEndpoint()
	ep.Register(1, func(_ transport.Env, b *nexus.Buffer) {
		v, _ := b.GetInt64()
		got <- v
	})
	sp, err := ctx.Attach(env, ep.Address())
	if err != nil {
		return err
	}
	defer sp.Close(env)
	b := nexus.NewBuffer()
	var sendErr error
	lost := 0
	cst := measure(func() {
		for i := 0; i < n && sendErr == nil; i++ {
			b.Reset()
			b.PutInt64(int64(i))
			if sendErr = sp.Send(env, 1, b); sendErr == nil && <-got != int64(i) {
				lost++
			}
		}
	})
	if sendErr != nil {
		return sendErr
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d remote service requests arrived out of order", lost, n)
	}
	c.set("nexus.rsr_tcp_us", cst.ns/float64(n)/1e3)
	return nil
}
