package rmf

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// pipeConn is one end of a net.Pipe as a transport.Conn.
type pipeConn struct{ c net.Conn }

func (p pipeConn) Read(env transport.Env, b []byte) (int, error)  { return p.c.Read(b) }
func (p pipeConn) Write(env transport.Env, b []byte) (int, error) { return p.c.Write(b) }
func (p pipeConn) Close(env transport.Env) error                  { return p.c.Close() }
func (p pipeConn) LocalAddr() string                              { return "pipe:1" }
func (p pipeConn) RemoteAddr() string                             { return "pipe:2" }

// request builds one framed request: an op and its fields, int32, int64 or
// string.
func request(op int32, fields ...interface{}) []byte {
	b := nexus.NewBuffer()
	b.PutInt32(op)
	for _, f := range fields {
		switch v := f.(type) {
		case int:
			b.PutInt32(int32(v))
		case int64:
			b.PutInt64(v)
		case string:
			b.PutString(v)
		}
	}
	return frame(b.Bytes())
}

// frame prefixes body with its length.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// join concatenates frames into one session's stream.
func join(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// expectSession is what a session of this package's daemons must do with
// stream: how many frames it answers, and whether it then ends by itself (a
// frame too short to hold an op, or a header over the frame limit) rather
// than waiting for more.
func expectSession(stream []byte) (replies int, ends bool) {
	for len(stream) >= 4 {
		n := binary.BigEndian.Uint32(stream)
		if n > nexus.DefaultMaxFrame {
			return replies, true
		}
		if uint64(len(stream)-4) < uint64(n) {
			return replies, false
		}
		stream = stream[4+n:]
		replies++
		if n < 4 {
			return replies, true
		}
	}
	return replies, false
}

// fuzzSession runs handle on one end of a pipe, writes stream on the other
// as a session's requests, and checks what every daemon of this package owes
// any peer: no panic, a status-prefixed reply to every frame that carries an
// op with the session kept open for more, the session's end after a frame
// that does not, and no allocation sized by a count the stream did not pay
// for (the budget is far above what the largest honest replies need and far
// below what a 32-bit count or a frame header can ask).
func fuzzSession(t *testing.T, stream []byte, handle func(transport.Env, transport.Conn)) {
	env := transport.NewTCPEnv("localhost")
	env.DialGuard = func(addr string) error { return errors.New("fuzz: no dialing") }
	replies, ends := expectSession(stream)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv, cli := net.Pipe()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		handle(env, pipeConn{srv})
	}()
	if err := cli.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		_, _ = cli.Write(stream) // fails once the session ends
	}()
	out := 0
	for i := 0; i < replies; i++ {
		resp, err := nexus.ReadFrame(cli, 0)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, replies, err)
		}
		if _, err := resp.GetBool(); err != nil {
			t.Fatalf("reply %d has no status: %v", i+1, err)
		}
		out += resp.Len()
	}
	if ends {
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("the session outlived a frame that does not decode")
		}
		if _, err := nexus.ReadFrame(cli, 0); err == nil {
			t.Fatal("a reply after the session ended")
		}
	} else {
		<-wrote // the session has read the whole stream
		select {
		case <-ended:
			t.Fatal("the session ended on well-formed requests")
		default:
		}
	}
	_ = cli.Close()
	<-ended
	<-wrote
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(stream)+out) {
		t.Fatalf("a %d-byte session with %d reply bytes allocated %d bytes", len(stream), out, grew)
	}
}

func FuzzAllocatorRequest(f *testing.F) {
	f.Add(request(opRegister, "node9", "node9:7101", "compas", 4))
	f.Add(request(opRegister, "node0", "elsewhere:7101", "etl", 1)) // moves a known one
	f.Add(request(opRegister, "node9", "node9:7101", "compas", 0))
	f.Add(request(opAlloc, 2, ""))
	f.Add(request(opAlloc, 3, "compas"))
	f.Add(request(opAlloc, 1, "nowhere"))
	f.Add(request(opAlloc, 1<<30, ""))
	f.Add(request(opAlloc, -1, ""))
	f.Add(request(opRelease, 2, "node0", "ghost"))
	f.Add(request(opRelease, 1<<30))
	f.Add(request(opRelease, -1))
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(join(request(opAlloc, 2, ""), request(opRelease, 2, "node0", "node1"), request(opAlloc, 1, "rwcp")))
	f.Add(join(request(opRelease, 1<<30), request(99), frame(nil), request(opAlloc, 1, "")))
	f.Add(join(request(opAlloc, 1, ""), []byte{0x7f, 0xff, 0xff, 0xff}))
	f.Fuzz(func(t *testing.T, stream []byte) {
		a := NewAllocator()
		a.Register("node0", "node0:7101", "compas", 4)
		a.Register("node1", "node1:7101", "compas", 1)
		a.Register("node2", "node2:7101", "rwcp", 2)
		fuzzSession(t, stream, a.handle)
	})
}

func FuzzQServerRequest(f *testing.F) {
	f.Add(request(opSubmit, "quick", 0, 0, "", ""))
	f.Add(request(opSubmit, "quick", 2, "a", "b", 1, "PROXY", "outer:7000", "x-gass://files:7200/in", ""))
	f.Add(request(opSubmit, "missing", 0, 0, "", ""))
	f.Add(request(opSubmit, "quick", 1<<30))
	f.Add(request(opSubmit, "quick", -1))
	f.Add(request(opSubmit, "quick", 0, 1<<30))
	f.Add(request(opSubmit, "quick", 0, -1))
	f.Add(request(opStatus, "node0.1"))
	f.Add(request(opAwait, "node0.1", int64(1e9)))
	f.Add(request(opAwait, "node0.1", int64(-1)))
	f.Add(request(opAwait, "node0.1"))
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(join(request(opSubmit, "quick", 0, 0, "", ""), request(opAwait, "node0.1", int64(1e9)), request(opStatus, "node0.1")))
	f.Add(join(request(opSubmit, "quick", 1<<30), request(99), request(opStatus, "node0.1"), frame([]byte{1})))
	f.Add(join(request(opStatus, "node0.7"), []byte{0, 0, 0, 9, 0, 0, 0, 11}))
	reg := NewRegistry()
	reg.Register("quick", func(env transport.Env, ctx *JobContext) error { return nil })
	f.Fuzz(func(t *testing.T, stream []byte) {
		fuzzSession(t, stream, NewQServer("node0", "compas", 2, reg).handle)
	})
}
