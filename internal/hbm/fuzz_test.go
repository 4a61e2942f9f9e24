package hbm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// memConn is a transport.Conn over memory: Read drains the stream it was
// made with, Write collects the replies.
type memConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(env transport.Env, b []byte) (int, error)  { return c.in.Read(b) }
func (c *memConn) Write(env transport.Env, b []byte) (int, error) { return c.out.Write(b) }
func (c *memConn) Close(env transport.Env) error                  { return nil }
func (c *memConn) LocalAddr() string                              { return "mem:1" }
func (c *memConn) RemoteAddr() string                             { return "mem:2" }

// request builds one framed request: an op and its fields, int32 or string.
func request(op int32, fields ...interface{}) []byte {
	return frame(body(op, fields...))
}

// body builds one request or reply body: an int32 and fields, int32 or
// string.
func body(op int32, fields ...interface{}) []byte {
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

// frame prefixes each body with its length and joins them into one
// session's stream.
func frame(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// fuzzSession serves stream as one session's requests and holds the session
// to what every control daemon owes any peer (see rmf's fuzzSession): no
// panic; a status-prefixed reply to every frame, with the session reading
// on after a frame that carries an op and refusing and ending after one too
// short for an op or at a header over the frame limit; and no allocation
// sized by a count the stream did not pay for.
func fuzzSession(t *testing.T, stream []byte, handle func(transport.Env, transport.Conn)) {
	env := transport.NewTCPEnv("localhost")
	env.DialGuard = func(addr string) error { return errors.New("fuzz: no dialing") }
	c := &memConn{in: bytes.NewReader(stream)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handle(env, c)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(stream)+c.out.Len()) {
		t.Fatalf("a %d-byte session allocated %d bytes", len(stream), grew)
	}
	rest, unread := stream, 0
	for i := 1; len(rest) >= 4; i++ {
		n := binary.BigEndian.Uint32(rest)
		if n > nexus.DefaultMaxFrame {
			unread = len(rest) - 4
			break
		}
		if uint64(len(rest)-4) < uint64(n) {
			break
		}
		rest = rest[4+n:]
		resp, err := nexus.ReadFrame(&c.out, 0)
		if err != nil {
			t.Fatalf("no reply to frame %d: %v", i, err)
		}
		ok, err := resp.GetBool()
		if err != nil {
			t.Fatalf("reply %d does not start with a status: %v", i, err)
		}
		if n < 4 {
			if ok {
				t.Fatalf("frame %d has no op and was not refused", i)
			}
			unread = len(rest)
			break
		}
	}
	if c.out.Len() != 0 {
		t.Fatalf("%d reply bytes past the replies owed", c.out.Len())
	}
	if c.in.Len() != unread {
		t.Fatalf("the session left %d of %d bytes unread, want %d", c.in.Len(), len(stream), unread)
	}
}

// FuzzMonitorRequest holds a monitor session to fuzzSession's bar.
func FuzzMonitorRequest(f *testing.F) {
	f.Add(request(opBeat, "node0"))
	f.Add(request(opBeat, ""))
	f.Add(request(opBeat, 1<<30))
	f.Add(request(opBeat, -1))
	f.Add(request(opDeregister, "node1"))
	f.Add(request(opDeregister, ""))
	f.Add(request(opList))
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(frame(body(opBeat, "node2"), body(opList), body(opDeregister, "node2"), body(opList)))
	f.Add(frame(body(opBeat, 1<<30), body(99), nil, body(opList)))
	f.Add(append(request(opBeat, "node0"), 0x7f, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, stream []byte) {
		m := NewMonitor(250 * time.Millisecond)
		m.beat("node0", 0)
		m.beat("node1", 0)
		fuzzSession(t, stream, m.handle)
	})
}

// FuzzListReply holds QueryAll's side of the list exchange to the bar
// FuzzMonitorRequest sets for the monitor's: no panic, and no allocation
// sized by a count the reply did not pay for. A list reply past its status
// is laid out as body lays one out: a count, then name and health fields.
func FuzzListReply(f *testing.F) {
	f.Add(body(0))
	f.Add(body(2, "node0", int(Up), "node1", int(Down)))
	f.Add(body(1 << 24))
	f.Add(body(1<<31 - 1))
	f.Add(body(-1))
	f.Add(body(2, "node0", int(Up)))
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
