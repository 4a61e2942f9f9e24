package rmf

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// memConn is a transport.Conn over memory: Read drains the request it was
// made with, Write collects the reply.
type memConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(env transport.Env, b []byte) (int, error)  { return c.in.Read(b) }
func (c *memConn) Write(env transport.Env, b []byte) (int, error) { return c.out.Write(b) }
func (c *memConn) Close(env transport.Env) error                  { return nil }
func (c *memConn) LocalAddr() string                              { return "mem:1" }
func (c *memConn) RemoteAddr() string                             { return "mem:2" }

// request builds one request body: an op and its fields, int32 or string.
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
	return b.Bytes()
}

// fuzzHandle frames body, gives it to handle over a memConn, and checks what
// every daemon of this package owes any peer: no panic, a status-prefixed
// reply to anything that carried an op, and no allocation sized by a count
// the frame did not pay for (the budget is far above what the largest
// honest reply needs and far below what a 32-bit count can ask).
func fuzzHandle(t *testing.T, body []byte, handle func(transport.Env, transport.Conn)) {
	env := transport.NewTCPEnv("localhost")
	env.DialGuard = func(addr string) error { return errors.New("fuzz: no dialing") }
	var framed bytes.Buffer
	if err := nexus.WriteFrame(&framed, nexus.FromBytes(body)); err != nil {
		t.Fatal(err)
	}
	c := &memConn{in: bytes.NewReader(framed.Bytes())}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handle(env, c)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(body)) {
		t.Fatalf("a %d-byte request made the handler allocate %d bytes", len(body), grew)
	}
	if len(body) < 4 {
		return
	}
	resp, err := nexus.ReadFrame(&c.out, 0)
	if err != nil {
		t.Fatalf("no reply frame: %v", err)
	}
	if _, err := resp.GetBool(); err != nil {
		t.Fatalf("reply does not start with a status: %v", err)
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
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		a := NewAllocator()
		a.Register("node0", "node0:7101", "compas", 4)
		a.Register("node1", "node1:7101", "compas", 1)
		a.Register("node2", "node2:7101", "rwcp", 2)
		fuzzHandle(t, body, a.handle)
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
	f.Add([]byte{0, 0})
	reg := NewRegistry()
	reg.Register("quick", func(env transport.Env, ctx *JobContext) error { return nil })
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzHandle(t, body, NewQServer("node0", "compas", 2, reg).handle)
	})
}
