package nexus

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nxcluster/internal/proxy"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// blockingEnv is a simnet Env whose in-place drivers decline, so
// transport.ReadEach takes its blocking Read loop; the processes it spawns
// are wrapped the same way.
type blockingEnv struct{ *simnet.Env }

func (blockingEnv) ReadEach(transport.Conn, func(int) []byte) (bool, error) { return false, nil }

func (e blockingEnv) Spawn(name string, fn func(transport.Env)) {
	e.Env.Spawn(name, func(c transport.Env) { fn(blockingEnv{c.(*simnet.Env)}) })
}

func (e blockingEnv) SpawnService(name string, fn func(transport.Env)) {
	e.Env.SpawnService(name, func(c transport.Env) { fn(blockingEnv{c.(*simnet.Env)}) })
}

// frameRun is what one run of rsrFrames observed.
type frameRun struct {
	deliveries         []string // "at handler len sum" per dispatched RSR
	delivered, dropped int64
	events             uint64
	now                time.Duration
}

// rsrFrames writes a seeded stream of RSR frames — to the endpoint or to
// unknown ones, with unknown handlers, empty payloads, and, for some seeds,
// a final header announcing more than DefaultMaxFrame — in random pieces
// over a network with a random MTU, into a Nexus context whose reader runs
// in place or, with blocking, as a Read loop.
func rsrFrames(t testing.TB, seed uint64, blocking bool) frameRun {
	var r frameRun
	k := sim.New()
	k.Seed(seed)
	n := simnet.New(k)
	n.MTU = 64 + int(k.Rand()%2048)
	n.AddHost("a", simnet.HostConfig{})
	n.AddHost("b", simnet.HostConfig{})
	n.Connect("a", "b", simnet.LinkConfig{Latency: time.Duration(1+k.Rand()%500) * time.Microsecond, Bandwidth: 1 << 20})

	var stream []byte
	frames := 1 + int(k.Rand()%24)
	for i := 0; i < frames; i++ {
		ep, h := uint32(1), uint32(1+k.Rand()%2) // handler 2 is unknown
		if k.Rand()%5 == 0 {
			ep = 7 // unknown endpoint
		}
		payload := make([]byte, k.Rand()%3000)
		if k.Rand()%6 == 0 {
			payload = payload[:0]
		}
		for j := range payload {
			payload[j] = byte(k.Rand())
		}
		stream = binary.BigEndian.AppendUint32(stream, ep)
		stream = binary.BigEndian.AppendUint32(stream, h)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(payload)))
		stream = append(stream, payload...)
	}
	if k.Rand()%3 == 0 {
		stream = append(stream, 0, 0, 0, 1, 0, 0, 0, 1, 0x40, 0, 0, 0)
		stream = append(stream, make([]byte, 100)...)
	}

	var ctx *Context
	n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
		if blocking {
			env = blockingEnv{env.(*simnet.Env)}
		}
		var err error
		if ctx, err = Init(env, proxy.Config{}); err != nil {
			t.Errorf("init: %v", err)
			return
		}
		ep := ctx.NewEndpoint()
		ep.Register(1, func(e transport.Env, b *Buffer) {
			sum := 0
			for _, c := range b.Bytes() {
				sum += int(c)
			}
			r.deliveries = append(r.deliveries, fmt.Sprint(e.Now(), " ", b.Len(), " ", sum))
		})
		addr := ctx.Addr()
		n.Node("a").SpawnOn("a", func(env transport.Env) {
			c, err := env.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			for rest := stream; len(rest) > 0; {
				m := 1 + int(k.Rand()%4000)
				if m > len(rest) {
					m = len(rest)
				}
				if _, err := c.Write(env, rest[:m]); err != nil {
					break // the reader closed on the oversized header
				}
				rest = rest[m:]
				env.Sleep(time.Duration(k.Rand()%300) * time.Microsecond)
			}
			_ = c.Close(env)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r.delivered, r.dropped = ctx.Delivered(), ctx.Dropped()
	r.events, r.now = k.Events(), k.Now()
	k.Shutdown()
	return r
}

func checkRSRFrames(t testing.TB, seed uint64) {
	want := rsrFrames(t, seed, true)
	got := rsrFrames(t, seed, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: the in-place reader observed\n%+v\nthe Read loop\n%+v", seed, got, want)
	}
}

// TestRSRFramesInPlace: the in-place reader delivers and drops what the
// blocking Read loop does, at the same instants, with the same events.
func TestRSRFramesInPlace(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		checkRSRFrames(t, seed)
	}
}

// FuzzRSRFrames is TestRSRFramesInPlace over arbitrary seeds.
func FuzzRSRFrames(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(0xfeed))
	f.Fuzz(func(t *testing.T, seed uint64) { checkRSRFrames(t, seed) })
}
