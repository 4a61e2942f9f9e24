package mds

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
func request(op byte, fields ...interface{}) []byte {
	b := nexus.NewBuffer()
	b.PutInt32(int32(op))
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

// FuzzDirectoryRequest holds the MDS server's handler to what every control
// daemon owes any peer (see rmf's fuzzHandle): no panic, a status-prefixed
// reply to anything that carried an op, and no allocation sized by a count
// the frame did not pay for.
func FuzzDirectoryRequest(f *testing.F) {
	f.Add(request(opSearch, "o=grid", ""))
	f.Add(request(opSearch, "o=grid", "(freecpus>=8)"))
	f.Add(request(opSearch, "ou=etl, o=grid", "(&(objectclass=resource)(cluster=etl))"))
	f.Add(request(opSearch, "o=grid", "(((("))
	f.Add(request(opSearch, "o=grid"))
	f.Add(request(opSearch, 1<<30))
	f.Add(request(opSearch, -1))
	f.Add(request(1, "hn=x, o=grid", 1, "cpus", -1)) // an add, which the server no longer takes
	f.Add(request(99))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := NewDirectory()
		_ = dir.Add("hn=rwcp-sun, ou=rwcp, o=grid", hostEntry("rwcp", 4))
		_ = dir.Add("hn=etl-o2k, ou=etl, o=grid", hostEntry("etl", 16))
		env := transport.NewTCPEnv("localhost")
		env.DialGuard = func(addr string) error { return errors.New("fuzz: no dialing") }
		var framed bytes.Buffer
		if err := nexus.WriteFrame(&framed, nexus.FromBytes(body)); err != nil {
			t.Fatal(err)
		}
		c := &memConn{in: bytes.NewReader(framed.Bytes())}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewServer(dir).handle(env, c)
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
