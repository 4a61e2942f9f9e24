package gram

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/nexus"
	"nxcluster/internal/rmf"
	"nxcluster/internal/transport"
)

// pipeConn is one end of a net.Pipe as a transport.Conn.
type pipeConn struct{ c net.Conn }

func (p pipeConn) Read(env transport.Env, b []byte) (int, error)  { return p.c.Read(b) }
func (p pipeConn) Write(env transport.Env, b []byte) (int, error) { return p.c.Write(b) }
func (p pipeConn) Close(env transport.Env) error                  { return p.c.Close() }
func (p pipeConn) LocalAddr() string                              { return "pipe:1" }
func (p pipeConn) RemoteAddr() string                             { return "pipe:2" }

// requestFrame is a framed request: op, then the given strings.
func requestFrame(op int32, args ...string) []byte {
	b := nexus.NewBuffer()
	b.PutInt32(op)
	for _, a := range args {
		b.PutString(a)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(b.Len())), b.Bytes()...)
}

// expectSession is what a gatekeeper session must do with stream: how many
// frames it answers, and whether it then ends by itself (a frame that does
// not decode, or a header over the frame limit) rather than waiting for
// more.
func expectSession(stream []byte) (replies int, ends bool) {
	for len(stream) >= 4 {
		n := binary.BigEndian.Uint32(stream)
		if n > nexus.DefaultMaxFrame {
			return replies, true
		}
		if uint64(len(stream)-4) < uint64(n) {
			return replies, false
		}
		req := nexus.FromBytes(stream[4 : 4+n])
		stream = stream[4+n:]
		replies++
		op, err := req.GetInt32()
		if err != nil {
			return replies, true
		}
		if op == opSubmit || op == opStatus {
			if _, err := req.GetString(); err != nil {
				return replies, true
			}
		}
	}
	return replies, false
}

// FuzzGatekeeperSession authenticates a session, then writes an arbitrary
// byte stream on it as request frames: well-formed ops, unknown ops, cut
// strings, oversized and bare headers. The gatekeeper must answer each
// well-formed frame and keep the session open for more, end it after a
// frame that does not decode, never panic, and allocate no more than a
// bounded multiple of what crossed the session; and a new session must
// still get an answer to a Status request.
func FuzzGatekeeperSession(f *testing.F) {
	join := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	f.Add(join(requestFrame(opSubmit, "&(executable=x)"), requestFrame(opStatus, "job-1"), requestFrame(opList)))
	f.Add(join(requestFrame(opSubmit, "&(executable=x)(count=2)(jobmanager=rmf)"), requestFrame(99)))
	f.Add(join(requestFrame(opList), requestFrame(opStatus)))
	f.Add(join(requestFrame(opStatus, "job-1"), []byte{0, 0, 0, 6, 0, 0, 0, 1, 0, 0}))
	f.Add(join(requestFrame(opList), []byte{0, 0, 0, 0}))
	f.Add([]byte{0, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 4})
	cred := auth.Credential{Subject: "/O=Grid/CN=fuzz", Key: []byte("fuzz key")}
	kr := auth.NewKeyring()
	kr.Grant(cred, "fuzz")
	f.Fuzz(func(t *testing.T, stream []byte) {
		gk := NewGatekeeper(Config{Keyring: kr, Registry: rmf.NewRegistry()})
		env := transport.NewTCPEnv("gatekeeper")
		replies, ends := expectSession(stream)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cli, ended := startSession(t, env, gk, cred)
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
		// The 1 MiB covers what the fuzzing engine allocates beside the
		// session; a header's announced size (up to 16 MiB) must not show.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(stream)+out) {
			t.Fatalf("a %d-byte session with %d reply bytes allocated %d bytes", len(stream), out, grew)
		}

		cli, ended = startSession(t, env, gk, cred)
		if _, err := cli.Write(requestFrame(opStatus, "job-1")); err != nil {
			t.Fatal(err)
		}
		_, err := nexus.ReadReply(cli)
		var se *nexus.StatusError
		if err != nil && (!errors.As(err, &se) || se.Malformed) {
			t.Fatalf("Status on a new session: %v", err)
		}
		_ = cli.Close()
		<-ended
	})
}

// startSession runs gk's handler on one end of a pipe, authenticates the
// other end as cred and returns it, with a channel closed when the handler
// returns.
func startSession(t *testing.T, env transport.Env, gk *Gatekeeper, cred auth.Credential) (net.Conn, <-chan struct{}) {
	t.Helper()
	srv, cli := net.Pipe()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		gk.handle(env, pipeConn{srv})
	}()
	if err := cli.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := auth.Initiate(env, pipeConn{cli}, cred); err != nil {
		t.Fatal(err)
	}
	return cli, ended
}
