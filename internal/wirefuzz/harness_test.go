// Package wirefuzz fuzzes the control daemons reached through the one open
// port: the gatekeeper (its handshake and its request loop), the RMF
// allocator and Q server, the HBM monitor, the MDS server and the GASS
// server. It drives each through its exported entry point on an Env whose
// listener hands out in-memory pipes, and holds every session to one bar and
// one allocation bound. The package is test files only.
package wirefuzz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"nxcluster/internal/gass"
	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// The op codes of the wires, as the daemons' packages define them.
const (
	gramSubmit = int32(1)
	gramStatus = int32(2)
	gramList   = int32(4)

	rmfRegister = int32(1)
	rmfAlloc    = int32(2)
	rmfRelease  = int32(3)
	qSubmit     = int32(10)
	qStatus     = int32(11)
	qAwait      = int32(12)

	hbmBeat       = int32(1)
	hbmList       = int32(3)
	hbmDeregister = int32(4)

	mdsSearch = int32(2)

	gassGet = byte(1)
	gassPut = byte(2)
)

// body encodes fields as a nexus frame body: an int or int32 as an int32,
// an int64, a string or a []byte length-prefixed.
func body(fields ...interface{}) []byte {
	b := nexus.NewBuffer()
	for _, f := range fields {
		switch v := f.(type) {
		case int:
			b.PutInt32(int32(v))
		case int32:
			b.PutInt32(v)
		case int64:
			b.PutInt64(v)
		case string:
			b.PutString(v)
		case []byte:
			b.PutBytes(v)
		}
	}
	return b.Bytes()
}

// frame prefixes each body with its length and joins them into one stream.
func frame(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// request is one framed request: an op and its fields.
func request(op int32, fields ...interface{}) []byte {
	return frame(body(append([]interface{}{op}, fields...)...))
}

// gassRequest is one GASS request: op on path, with a put's body.
func gassRequest(op byte, path string, data []byte) []byte {
	b := binary.BigEndian.AppendUint16([]byte{op}, uint16(len(path)))
	b = append(b, path...)
	if op == gassPut {
		b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
		b = append(b, data...)
	}
	return b
}

// pipeConn is one end of a net.Pipe as a transport.Conn. ended closes with
// it: a daemon closes a session's connection as the session's last act.
type pipeConn struct {
	c     net.Conn
	ended chan struct{}
	once  sync.Once
}

func newPipe() (srv, cli *pipeConn) {
	a, b := net.Pipe()
	_ = b.SetDeadline(time.Now().Add(20 * time.Second))
	return &pipeConn{c: a, ended: make(chan struct{})}, &pipeConn{c: b, ended: make(chan struct{})}
}

func (p *pipeConn) Read(_ transport.Env, b []byte) (int, error)  { return p.c.Read(b) }
func (p *pipeConn) Write(_ transport.Env, b []byte) (int, error) { return p.c.Write(b) }
func (p *pipeConn) LocalAddr() string                            { return "pipe:1" }
func (p *pipeConn) RemoteAddr() string                           { return "pipe:2" }

func (p *pipeConn) Close(transport.Env) error {
	p.once.Do(func() { close(p.ended) })
	return p.c.Close()
}

// pipeEnv is a real-TCP Env with dialing out refused, whose Listen binds the
// env itself: a listener whose connections are pipes that dial makes, so no
// fuzz input costs a socket or a port.
type pipeEnv struct {
	*transport.TCPEnv
	conns  chan *pipeConn
	closed chan struct{}
	once   sync.Once
}

func newPipeEnv() *pipeEnv {
	env := transport.NewTCPEnv("fuzz")
	env.DialGuard = func(string) error { return errors.New("wirefuzz: no dialing") }
	return &pipeEnv{TCPEnv: env, conns: make(chan *pipeConn), closed: make(chan struct{})}
}

func (e *pipeEnv) Listen(int) (transport.Listener, error) { return e, nil }
func (e *pipeEnv) Addr() string                           { return "fuzz:7010" }

func (e *pipeEnv) Accept(transport.Env) (transport.Conn, error) {
	select {
	case c := <-e.conns:
		return c, nil
	case <-e.closed:
		return nil, transport.ErrClosed
	}
}

func (e *pipeEnv) Close(transport.Env) error {
	e.once.Do(func() { close(e.closed) })
	return nil
}

// dial opens a session with the daemon that accepts on e and returns the
// two ends of its connection.
func (e *pipeEnv) dial(t *testing.T) (srv, cli *pipeConn) {
	t.Helper()
	srv, cli = newPipe()
	select {
	case e.conns <- srv:
	case <-time.After(10 * time.Second):
		t.Fatal("the daemon accepts no session")
	}
	return srv, cli
}

// K is how many times leastAlloc runs an input.
const K = 3

// leastAlloc calls run K times. run calls measure once, around the work it
// bounds; leastAlloc returns the least number of bytes the process allocated
// in one measured call. TotalAlloc is process-wide, and the fuzzing engine
// allocates beside an input, on goroutines of its own, now and then; what
// the input makes a daemon allocate shows in every run. (A runtime.GC()
// before each run would not change TotalAlloc, a running sum, and in a fuzz
// worker it costs about 4 ms: three per input cut the rate from about 2,000
// inputs a second to 70.)
func leastAlloc(run func(measure func(func()))) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < K; i++ {
		run(func(fn func()) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		})
	}
	return least
}

// sessionBytes is what one session may allocate whatever it is sent: one
// frame's (or GASS path's) first read chunk, the 64 KiB nexus.ReadN
// allocates before the bytes arrive, and 32 KiB for the handshake and the
// session's records, of which the costliest session, the gatekeeper's, used
// 8 KiB.
const sessionBytes = 96 << 10

// allocBound is what a session that read in bytes and wrote out bytes may
// allocate: sessionBytes, then 64 B per byte either way. A size the stream
// announces but does not send must not show.
func allocBound(in, out int) uint64 {
	return sessionBytes + 64*uint64(in+out)
}

// A reply is one answer a session owes: to a request with op (GASS's byte
// wire reads a get's reply apart), and a refusal when refused.
type reply struct {
	op      byte
	refused bool
}

// A wire is a request/reply format behind the port.
type wire struct {
	// expect returns what a session owes stream: a reply to each request
	// in it, in order; then, when ends, the session's end by itself rather
	// than a wait for more; having read the first read bytes.
	expect func(stream []byte) (replies []reply, ends bool, read int)
	// readReply reads one reply, checks it against want and returns its
	// length.
	readReply func(r io.Reader, want reply) (int, error)
}

// frames is the nexus wire, on which the daemon refuses and ends the
// session at a frame whose body does not decode, and ends it at a header
// over the frame limit.
func frames(decodes func(body []byte) bool) wire {
	return wire{
		expect: func(stream []byte) (replies []reply, ends bool, read int) {
			for rest := stream; len(rest) >= 4; {
				n := binary.BigEndian.Uint32(rest)
				if n > nexus.DefaultMaxFrame {
					return replies, true, len(stream) - len(rest) + 4
				}
				if uint64(len(rest)-4) < uint64(n) {
					break
				}
				ok := decodes(rest[4 : 4+n])
				rest = rest[4+n:]
				replies = append(replies, reply{refused: !ok})
				if !ok {
					return replies, true, len(stream) - len(rest)
				}
			}
			return replies, false, len(stream)
		},
		readReply: func(r io.Reader, want reply) (int, error) {
			resp, err := nexus.ReadFrame(r, 0)
			if err != nil {
				return 0, err
			}
			ok, err := resp.GetBool()
			switch {
			case err != nil:
				return 0, fmt.Errorf("no status: %w", err)
			case ok && want.refused:
				return 0, errors.New("a request that does not decode was not refused")
			case !ok:
				if _, err := resp.GetString(); err != nil {
					return 0, fmt.Errorf("a refusal without its message: %w", err)
				}
			}
			return 4 + resp.Len(), nil
		},
	}
}

// hasOp is what a nexus.ServeSession daemon decodes: a body holding an op.
func hasOp(body []byte) bool { return len(body) >= 4 }

// gassWire is GASS's byte wire: [op:1][pathLen:2][path], a put followed by
// [dataLen:4][data]; a reply is [status:1] then a get's [dataLen:4][data]
// or a refusal's [msgLen:2][msg]. An unknown op, or a put over
// gass.MaxFileSize (its body left unread), is refused and ends the session.
var gassWire = wire{
	expect: func(stream []byte) (replies []reply, ends bool, read int) {
		for rest := stream; len(rest) >= 3; {
			op, pathLen := rest[0], int(binary.BigEndian.Uint16(rest[1:3]))
			if len(rest) < 3+pathLen {
				break
			}
			rest = rest[3+pathLen:]
			switch op {
			case gassGet:
			case gassPut:
				if len(rest) < 4 {
					return replies, false, len(stream)
				}
				n := binary.BigEndian.Uint32(rest)
				if n > gass.MaxFileSize {
					return append(replies, reply{op, true}), true, len(stream) - len(rest) + 4
				}
				if uint64(len(rest)-4) < uint64(n) {
					return replies, false, len(stream)
				}
				rest = rest[4+n:]
			default:
				return append(replies, reply{op, true}), true, len(stream) - len(rest)
			}
			replies = append(replies, reply{op: op})
		}
		return replies, false, len(stream)
	},
	readReply: func(r io.Reader, want reply) (int, error) {
		var status [1]byte
		if _, err := io.ReadFull(r, status[:]); err != nil {
			return 0, err
		}
		size := make([]byte, 0, 4)
		switch {
		case status[0] != 0:
			size = size[:2] // a refusal's message
		case want.refused:
			return 0, fmt.Errorf("request %d was not refused", want.op)
		case want.op == gassGet:
			size = size[:4] // a file
		}
		if _, err := io.ReadFull(r, size); err != nil {
			return 0, err
		}
		n := int64(0)
		for _, b := range size {
			n = n<<8 | int64(b)
		}
		_, err := io.CopyN(io.Discard, r, n)
		return 1 + len(size) + int(n), err
	},
}

// A daemon is one of the servers behind the port, as fuzzSession drives it.
type daemon struct {
	wire wire
	// start builds a fresh server and returns its accept loop.
	start func() (serve func(env transport.Env) error)
	// hello, when set, opens each session before its requests.
	hello func(env transport.Env, c transport.Conn) error
	// probe is a well-formed request a new session must get answered after
	// the fuzzed one.
	probe []byte
}

// fuzzSession writes stream into one session of a fresh d, K times, and
// holds each run to what a daemon behind the port owes any peer: no panic;
// the replies d.wire says stream is owed, in order; the session's end after
// a request that ends it and no sooner, having read the bytes up to it and
// no more; an answer to d.probe on a new session; and no more allocation in
// the fuzzed session, in the least of the K runs, than allocBound.
func fuzzSession(t *testing.T, d daemon, stream []byte) {
	replies, ends, read := d.wire.expect(stream)
	probed, _, _ := d.wire.expect(d.probe)
	out := 0
	grew := leastAlloc(func(measure func(func())) {
		env := newPipeEnv()
		serve := d.start()
		served := make(chan error, 1)
		go func() { served <- serve(env) }()
		measure(func() {
			out = d.session(t, env, stream, replies, ends, read)
		})
		d.session(t, env, d.probe, probed, false, len(d.probe))
		_ = env.Close(env)
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	})
	if bound := allocBound(len(stream), out); grew > bound {
		t.Fatalf("a %d-byte session with %d reply bytes allocated %d bytes, over its bound of %d", len(stream), out, grew, bound)
	}
}

// session opens a session on env, writes stream into it and checks the
// replies, the end and the bytes read that fuzzSession expects; it returns
// the reply bytes once the session has ended.
func (d daemon) session(t *testing.T, env *pipeEnv, stream []byte, replies []reply, ends bool, read int) int {
	t.Helper()
	srv, cli := env.dial(t)
	if d.hello != nil {
		if err := d.hello(env, cli); err != nil {
			t.Fatal(err)
		}
	}
	wrote := make(chan int, 1)
	go func() {
		n, _ := cli.c.Write(stream) // fails once the session ends
		wrote <- n
	}()
	out := 0
	for i, want := range replies {
		n, err := d.wire.readReply(cli.c, want)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, len(replies), err)
		}
		out += n
	}
	if ends {
		select {
		case <-srv.ended:
		case <-time.After(10 * time.Second):
			t.Fatal("the session outlived a request that ends it")
		}
		if _, err := cli.c.Read(make([]byte, 1)); err == nil {
			t.Fatal("a reply after the session ended")
		}
	}
	if n := <-wrote; n != read {
		t.Fatalf("the session read %d of %d bytes, want %d", n, len(stream), read)
	}
	if !ends {
		select {
		case <-srv.ended:
			t.Fatal("the session ended on well-formed requests")
		default:
		}
	}
	_ = cli.Close(env)
	<-srv.ended
	return out
}
