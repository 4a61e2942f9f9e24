package proxy

import (
	"sync/atomic"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// RelayConfig tunes the data pump both servers use to shuttle bytes between
// the two legs of a relayed connection.
type RelayConfig struct {
	// BufBytes is the relay read buffer; each read-process-write cycle
	// handles at most this many bytes (default 4096). In the simulator it is
	// the per-buffer unit PerBuffer is charged on: the knob behind the
	// paper's small-message bandwidth cliff, swept by the ablation
	// benchmarks. On real TCP it sizes the loop's reads, and a read that
	// fills it moves the rest of that direction into the kernel
	// (transport.Relay).
	BufBytes int
	// PerBuffer is the processing cost charged (as CPU time on the relay
	// host) per buffer relayed. It models the year-2000 userspace relay
	// overhead the paper measures: ~10 ms per relay server per message,
	// which makes indirect LAN latency ~60x direct latency while becoming
	// negligible for large transfers on a 1.5 Mbps WAN.
	PerBuffer time.Duration
}

func (c RelayConfig) bufBytes() int {
	if c.BufBytes <= 0 {
		return 4096
	}
	return c.BufBytes
}

// Stats counts relay activity for reporting.
type Stats struct {
	// ConnectRelays counts active opens relayed.
	ConnectRelays int
	// BindRelays counts passive opens spliced.
	BindRelays int
	// Bytes counts payload bytes pumped in both directions. After a
	// direction has moved into the kernel on real TCP, its bytes are
	// counted per 1 MiB or at the end of the stream, so on a connection
	// that then carries only small messages the count may not move again
	// until it closes.
	Bytes int64
	// Registrations counts registration sessions established on the
	// inner-to-outer control channel (1 in a fault-free run; each recovery
	// after a flap or outer restart adds one).
	Registrations int
	// InnerConnected reports whether a registration session is currently
	// live (outer server only).
	InnerConnected bool
	// SuspectPeriods counts keepalive cycles that missed a pong but stayed
	// on the session under KeepaliveConfig.MissBudget (inner server only):
	// evidence the boundary link was degraded rather than down.
	SuspectPeriods int
}

// pump copies bytes from src to dst until EOF or error, charging the
// configured per-buffer processing cost (transport.Relay, which runs the
// cycle in place on the simulator, and on real TCP hands a direction that
// fills its buffer to splice(2)). It runs as its own process; a relayed
// connection uses two pumps, one per direction.
//
// Teardown distinguishes how the stream ended: a clean EOF closes both legs
// in order, while a mid-stream transport failure (connection reset, crashed
// endpoint) aborts both legs, so the surviving endpoint observes ErrReset
// rather than mistaking the break for an orderly close.
func pump(env transport.Env, name string, src, dst transport.Conn, cfg RelayConfig, bytes *int64) {
	p := &transport.Pump{Buf: make([]byte, cfg.bufBytes()), PerBuffer: cfg.PerBuffer}
	// The observer is resolved once per pump: nil on real TCP and when
	// tracing is off. recv marks a buffer landing in the relay, fwd marks it
	// leaving — the gap between them is the store-and-forward cost the paper
	// attributes the proxy's latency penalty to. The occupancy gauge sums
	// held bytes across all pumps on this relay host.
	o := obs.From(env)
	var mOcc *obs.Gauge
	var mBytes *obs.Counter
	track := env.Hostname() + "/" + name
	// Relay legs belong to whichever traced job dialed the source leg; its
	// context rides the connection as baggage.
	tc := obs.BaggageOf(src)
	if o != nil {
		mOcc = o.Metrics().Gauge("relay." + env.Hostname() + ".occupancy")
		mBytes = o.Metrics().Counter("relay." + env.Hostname() + ".bytes")
		// Active-pump gauge: the monitoring plane's view of concurrent
		// relayed streams on this host (2 pumps per spliced connection).
		mStreams := o.Metrics().Gauge("relay." + env.Hostname() + ".streams")
		mStreams.Add(1)
		defer mStreams.Add(-1)
		p.Recv = func(n int) {
			o.EmitCtx(env.Now(), tc, "relay", "recv", track, obs.Int("bytes", int64(n)))
			mOcc.Add(int64(n))
		}
	}
	p.Fwd = func(n int) {
		if o != nil {
			o.EmitCtx(env.Now(), tc, "relay", "fwd", track, obs.Int("bytes", int64(n)))
			mOcc.Add(-int64(n))
			mBytes.Add(int64(n))
		}
		if bytes != nil {
			// Atomic because the two pumps of a TCP relay are separate
			// goroutines (in the simulator they are cooperatively
			// scheduled and the atomicity is free).
			atomic.AddInt64(bytes, int64(n))
		}
	}
	if err := transport.Relay(env, src, dst, p); err != nil {
		_ = transport.Abort(env, dst)
		_ = transport.Abort(env, src)
		return
	}
	_ = dst.Close(env)
	_ = src.Close(env)
}

// splice wires a and b together with two pumps and returns immediately.
func splice(env transport.Env, name string, a, b transport.Conn, cfg RelayConfig, bytes *int64) {
	env.SpawnService(name+":fwd", func(e transport.Env) { pump(e, name+":fwd", a, b, cfg, bytes) })
	env.SpawnService(name+":rev", func(e transport.Env) { pump(e, name+":rev", b, a, cfg, bytes) })
}
