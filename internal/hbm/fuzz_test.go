package hbm

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

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
		case string:
			b.PutString(v)
		}
	}
	return b.Bytes()
}

// FuzzMonitorRequest holds the monitor's handler to what every control
// daemon owes any peer (see rmf's fuzzHandle): no panic, a status-prefixed
// reply to anything that carried an op, and no allocation sized by a count
// the frame did not pay for.
func FuzzMonitorRequest(f *testing.F) {
	f.Add(request(opBeat, "node0"))
	f.Add(request(opBeat, ""))
	f.Add(request(opBeat, 1<<30))
	f.Add(request(opBeat, -1))
	f.Add(request(opDeregister, "node1"))
	f.Add(request(opDeregister, ""))
	f.Add(request(opList))
	f.Add(request(99))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		m := NewMonitor(250 * time.Millisecond)
		m.beat("node0", 0)
		m.beat("node1", 0)
		env := transport.NewTCPEnv("localhost")
		env.DialGuard = func(addr string) error { return errors.New("fuzz: no dialing") }
		var framed bytes.Buffer
		if err := nexus.WriteFrame(&framed, nexus.FromBytes(body)); err != nil {
			t.Fatal(err)
		}
		c := &memConn{in: bytes.NewReader(framed.Bytes())}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.handle(env, c)
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
	})
}

// FuzzListReply holds QueryAll's side of the list exchange to the bar
// FuzzMonitorRequest sets for the monitor's: no panic, and no allocation
// sized by a count the reply did not pay for. A list reply past its status
// is laid out as request lays out a body: a count, then name and health
// fields.
func FuzzListReply(f *testing.F) {
	f.Add(request(0))
	f.Add(request(2, "node0", int(Up), "node1", int(Down)))
	f.Add(request(1 << 24))
	f.Add(request(1<<31 - 1))
	f.Add(request(-1))
	f.Add(request(2, "node0", int(Up)))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := decodeList(nexus.FromBytes(body))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(body)) {
			t.Fatalf("a %d-byte reply made the decoder allocate %d bytes", len(body), grew)
		}
		if err == nil && 8*len(out) > len(body) {
			t.Fatalf("a %d-byte reply decoded to %d entries", len(body), len(out))
		}
	})
}
