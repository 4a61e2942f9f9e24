package gass

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/transport"
)

// serveStore serves store on port (0 for any) of env and returns the server
// and its address.
func serveStore(t *testing.T, env transport.Env, store *Store, port int) (*Server, string) {
	t.Helper()
	srv := NewServer(store)
	ready, failed := make(chan string, 1), make(chan error, 1)
	env.Spawn("gass", func(e transport.Env) {
		if err := srv.Serve(e, port, func(addr string) { ready <- addr }); err != nil {
			failed <- err
		}
	})
	select {
	case addr := <-ready:
		return srv, addr
	case err := <-failed:
		t.Fatal(err)
		return nil, ""
	}
}

// countDials makes env count its dials.
func countDials(env *transport.TCPEnv) *atomic.Int32 {
	var n atomic.Int32
	env.DialGuard = func(string) error { n.Add(1); return nil }
	return &n
}

// TestSessionsSharedTCP: two goroutines share one TCPEnv and each publish
// and fetch 100 files. Calls take an idle session and keep it after the
// reply, a refusal for a missing file included, so the two callers dial at
// most one session each.
func TestSessionsSharedTCP(t *testing.T) {
	env, _, addr := startServer(t)
	dials := countDials(env)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				url := URL(addr, fmt.Sprintf("/c%d/%d", c, i))
				want := bytes.Repeat([]byte{byte(i)}, i)
				if err := Publish(env, url, want); err != nil {
					errs <- err
					return
				}
				if got, err := Fetch(env, url); err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("Fetch %s = %d bytes, %v; want %d bytes", url, len(got), err, len(want))
					return
				}
				if _, err := Fetch(env, url+"/missing"); !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("Fetch of a missing file = %v, want ErrNotFound", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load(); n < 1 || n > 2 {
		t.Fatalf("two callers dialed %d sessions, want 1 or 2", n)
	}
}

// TestSessionRetryTCP: a server restarted on the same port has ended the
// client's idle session, so the next Fetch fails on it before any reply byte
// and succeeds on exactly one new session.
func TestSessionRetryTCP(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	dials := countDials(env)
	store := NewStore()
	if err := store.Put("/f", []byte("contents")); err != nil {
		t.Fatal(err)
	}
	srv, addr := serveStore(t, env, store, 0)
	t.Cleanup(func() { srv.Close(env) })
	_, port, err := transport.SplitAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(env, URL(addr, "/f")); err != nil || dials.Load() != 1 {
		t.Fatalf("first Fetch: %d dials, err = %v; want 1 dial", dials.Load(), err)
	}
	srv.Close(env)
	srv, _ = serveStore(t, env, store, port)
	got, err := Fetch(env, URL(addr, "/f"))
	if err != nil || string(got) != "contents" || dials.Load() != 2 {
		t.Fatalf("Fetch after a restart = %q, %v, %d dials in all; want the file on 1 new dial", got, err, dials.Load())
	}
}

// TestServerCloseEndsSessionsTCP: Close ends the sessions that wait idle
// for a next request, so no session goroutine is left.
func TestServerCloseEndsSessionsTCP(t *testing.T) {
	start := runtime.NumGoroutine()
	env := transport.NewTCPEnv("localhost")
	srv, addr := serveStore(t, env, NewStore(), 0)
	for i := 0; i < 3; i++ {
		if err := Publish(env, URL(addr, "/f"), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close(env)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the server started:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// pipeConn is one end of a net.Pipe as a transport.Conn.
type pipeConn struct{ c net.Conn }

func (p pipeConn) Read(env transport.Env, b []byte) (int, error)  { return p.c.Read(b) }
func (p pipeConn) Write(env transport.Env, b []byte) (int, error) { return p.c.Write(b) }
func (p pipeConn) Close(env transport.Env) error                  { return p.c.Close() }
func (p pipeConn) LocalAddr() string                              { return "pipe:1" }
func (p pipeConn) RemoteAddr() string                             { return "pipe:2" }

// allocated returns how many bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSizeHeadersAllocateLittle: a size header alone, the server's put size
// or the client's file size, cannot make its reader allocate what it
// announces: a 9-byte put of 64 MiB and a 5-byte reply of 64 MiB, each
// followed by the end of the stream, cost under 1 MiB.
func TestSizeHeadersAllocateLittle(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	put := []byte{opPut, 0, 2, '/', 'a'}
	put = binary.BigEndian.AppendUint32(put, MaxFileSize)
	got := allocated(func() {
		srv, cli := net.Pipe()
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			NewServer(NewStore()).handle(env, pipeConn{srv})
		}()
		_, _ = cli.Write(put)
		_ = cli.Close()
		<-ended
	})
	if got >= 1<<20 {
		t.Errorf("the server allocated %d bytes for a %d-byte put header", got, len(put))
	}

	got = allocated(func() {
		srv, cli := net.Pipe()
		go func() {
			_, _ = srv.Write(binary.BigEndian.AppendUint32(nil, MaxFileSize))
			_ = srv.Close()
		}()
		if _, err := readData(transport.Stream{Env: env, Conn: pipeConn{cli}}); err == nil {
			t.Error("a reply cut short after its size header was read whole")
		}
	})
	if got >= 1<<20 {
		t.Errorf("the client allocated %d bytes for a 4-byte size header", got)
	}
}

// gassRequest builds one request: op on path, with a put's body.
func gassRequest(op byte, path string, body []byte) []byte {
	b := append([]byte{op}, binary.BigEndian.AppendUint16(nil, uint16(len(path)))...)
	b = append(b, path...)
	if op == opPut {
		b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

// expectGASS is what a session must do with stream: the op of every request
// it answers in order, and whether it then ends by itself (after an unknown
// op, or a put over MaxFileSize) rather than waiting for more.
func expectGASS(stream []byte) (ops []byte, ends bool) {
	for len(stream) >= 3 {
		op, pathLen := stream[0], int(binary.BigEndian.Uint16(stream[1:3]))
		if len(stream) < 3+pathLen {
			return ops, false
		}
		stream = stream[3+pathLen:]
		switch op {
		case opGet:
		case opPut:
			if len(stream) < 4 {
				return ops, false
			}
			n := binary.BigEndian.Uint32(stream)
			if n > MaxFileSize {
				return append(ops, op), true
			}
			if uint64(len(stream)-4) < uint64(n) {
				return ops, false
			}
			stream = stream[4+n:]
		default:
			return append(ops, op), true
		}
		ops = append(ops, op)
	}
	return ops, false
}

// readGASSReply reads one reply to op and returns its length.
func readGASSReply(r io.Reader, op byte) (int, error) {
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return 0, err
	}
	size := make([]byte, 0, 4)
	switch {
	case status[0] != 0:
		size = size[:2] // a refusal's message
	case op == opGet:
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
}

// FuzzGASSSession writes a stream of requests into one server session and
// checks what the server owes any peer: no panic, a reply to every complete
// request with the session kept open for more, the session's end after an
// unknown op or a put over MaxFileSize, and no allocation sized by a header
// the stream did not pay for (the budget is far above what the largest
// honest replies need and far below what one 4-byte size can ask).
func FuzzGASSSession(f *testing.F) {
	f.Add(gassRequest(opGet, "/in", nil))
	f.Add(gassRequest(opGet, "/missing", nil))
	f.Add(gassRequest(opPut, "/out", []byte("hello")))
	f.Add(gassRequest(opPut, "", nil))
	f.Add(append(gassRequest(opPut, "/a", nil)[:5], 0x04, 0, 0, 0)) // 64 MiB, unsent
	f.Add(append(gassRequest(opPut, "/a", nil)[:5], 0x04, 0, 0, 1)) // over MaxFileSize
	f.Add(append(gassRequest(opGet, "/in", nil), gassRequest(9, "/", nil)...))
	f.Add(append(append(gassRequest(opPut, "/x", []byte("xyz")), gassRequest(opGet, "/x", nil)...), gassRequest(opGet, "/in", nil)...))
	f.Add([]byte{opGet, 0xff, 0xff, '/'})
	f.Fuzz(func(t *testing.T, stream []byte) {
		env := transport.NewTCPEnv("localhost")
		env.DialGuard = func(string) error { return errors.New("fuzz: no dialing") }
		store := NewStore()
		if err := store.Put("/in", bytes.Repeat([]byte("in"), 50)); err != nil {
			t.Fatal(err)
		}
		ops, ends := expectGASS(stream)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv, cli := net.Pipe()
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			NewServer(store).handle(env, pipeConn{srv})
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
		for i, op := range ops {
			n, err := readGASSReply(cli, op)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(ops), err)
			}
			out += n
		}
		if ends {
			select {
			case <-ended:
			case <-time.After(10 * time.Second):
				t.Fatal("the session outlived a request that ends it")
			}
			if _, err := cli.Read(make([]byte, 1)); err == nil {
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
	})
}
