package gridftp

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"nxcluster/internal/gass"
	"nxcluster/internal/nexus"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

func TestLedgerAddMergesRanges(t *testing.T) {
	var l Ledger
	l.Add(100, 50)
	l.Add(0, 50)
	l.Add(300, 10)
	if got := l.Ranges(); !reflect.DeepEqual(got, []Range{{0, 50}, {100, 50}, {300, 10}}) {
		t.Fatalf("disjoint ranges = %v", got)
	}
	l.Add(50, 50) // bridges the first gap exactly
	if got := l.Ranges(); !reflect.DeepEqual(got, []Range{{0, 150}, {300, 10}}) {
		t.Fatalf("after bridge = %v", got)
	}
	l.Add(140, 200) // overlaps both remaining ranges
	if got := l.Ranges(); !reflect.DeepEqual(got, []Range{{0, 340}}) {
		t.Fatalf("after overlap = %v", got)
	}
	if l.Bytes() != 340 {
		t.Fatalf("Bytes = %d", l.Bytes())
	}
	if !l.Complete(340) || l.Complete(341) {
		t.Fatal("Complete")
	}
	// Duplicate and degenerate adds are no-ops.
	l.Add(0, 340)
	l.Add(10, 0)
	l.Add(-5, 10)
	if got := l.Ranges(); !reflect.DeepEqual(got, []Range{{0, 340}}) {
		t.Fatalf("after no-ops = %v", got)
	}
}

// TestLedgerAddZeroAlloc: a block that extends, overlaps or bridges ranges
// of a warmed ledger merges in place.
func TestLedgerAddZeroAlloc(t *testing.T) {
	var l Ledger
	for off := int64(0); off < 64<<10; off += 8 << 10 {
		l.Add(off, 1<<10) // disjoint ranges 8 KiB apart
	}
	end := int64(1 << 10)
	adjacent := testing.AllocsPerRun(1000, func() {
		l.Add(end, 512) // extends the first range, bridging into the next in turn
		end += 512
	})
	overlapping := testing.AllocsPerRun(1000, func() { l.Add(100, 2000) })
	if adjacent != 0 || overlapping != 0 {
		t.Fatalf("allocs per Add: adjacent %v, overlapping %v; want 0", adjacent, overlapping)
	}
}

func TestLedgerMissing(t *testing.T) {
	var l Ledger
	if got := l.Missing(100); !reflect.DeepEqual(got, []Range{{0, 100}}) {
		t.Fatalf("empty ledger Missing = %v", got)
	}
	l.Add(10, 20)
	l.Add(50, 25)
	want := []Range{{0, 10}, {30, 20}, {75, 25}}
	if got := l.Missing(100); !reflect.DeepEqual(got, want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	l.Add(0, 100)
	if got := l.Missing(100); got != nil {
		t.Fatalf("complete Missing = %v", got)
	}
}

func TestLedgerEncodeDecodeRoundTrip(t *testing.T) {
	var l Ledger
	l.Add(0, 64<<10)
	l.Add(200<<10, 64<<10)
	dec, err := DecodeLedger(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Ranges(), l.Ranges()) {
		t.Fatalf("round trip = %v, want %v", dec.Ranges(), l.Ranges())
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, {0, 0, 0, 1}, {0, 0, 0, 1, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}} {
		if _, err := DecodeLedger(bad); err == nil {
			t.Errorf("DecodeLedger(%v) succeeded", bad)
		}
	}
}

func TestChopRanges(t *testing.T) {
	blocks := chopRanges([]Range{{0, 250}}, 100)
	if !reflect.DeepEqual(blocks, []Range{{0, 100}, {100, 100}, {200, 50}}) {
		t.Fatalf("chopRanges = %v", blocks)
	}
}

func TestParseAndBuildURL(t *testing.T) {
	hp, path, err := ParseURL("x-gridftp://etl-sun:7040/bulk/input.dat")
	if err != nil || hp != "etl-sun:7040" || path != "/bulk/input.dat" {
		t.Fatalf("ParseURL = %q, %q, %v", hp, path, err)
	}
	if URL("h:1", "a/b") != "x-gridftp://h:1/a/b" {
		t.Fatal("URL build")
	}
	for _, bad := range []string{"", "x-gass://h:1/p", "x-gridftp://hostonly"} {
		if _, _, err := ParseURL(bad); err == nil {
			t.Errorf("ParseURL(%q) succeeded", bad)
		}
	}
	if !IsURL("x-gridftp://h:1/p") || IsURL("x-gass://h:1/p") {
		t.Fatal("IsURL")
	}
}

// startServer runs a gridftp server over a real TCP loopback env with direct
// (non-proxied) dialing and returns its control address.
func startServer(t *testing.T) (*transport.TCPEnv, *Server, string) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")
	srv := NewServer(gass.NewStore(), proxy.Dialer{})
	ready := make(chan string, 1)
	env.Spawn("gridftp", func(e transport.Env) {
		_ = srv.Serve(e, 0, func(addr string) { ready <- addr })
	})
	addr := <-ready
	t.Cleanup(func() { srv.Close(env) })
	return env, srv, addr
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	env, srv, addr := startServer(t)
	payload := pattern(300<<10 + 37) // several blocks plus a ragged tail
	url := URL(addr, "/bulk/data.bin")
	cl := &Client{Streams: 4}
	stats, err := cl.Put(env, url, payload)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64(len(payload)) || stats.Resumes != 0 {
		t.Fatalf("put stats = %+v", stats)
	}
	stored, err := srv.Store.Get("/bulk/data.bin")
	if err != nil || !bytes.Equal(stored, payload) {
		t.Fatalf("server store holds %d bytes, %v", len(stored), err)
	}
	got, gstats, err := cl.Get(env, url)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if gstats.Bytes != int64(len(payload)) || gstats.Resumes != 0 {
		t.Fatalf("get stats = %+v", gstats)
	}
}

// tapEnv is a TCPEnv whose dials hand out tapConns.
type tapEnv struct {
	*transport.TCPEnv
	conns []*tapConn
}

func (e *tapEnv) Dial(addr string) (transport.Conn, error) {
	c, err := e.TCPEnv.Dial(addr)
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	e.conns = append(e.conns, tc)
	return tc, nil
}

// tapConn keeps every byte its peer sent: what its reader read, and on
// Close whatever else arrives before the peer closes too.
type tapConn struct {
	transport.Conn
	got []byte
}

func (c *tapConn) Read(env transport.Env, b []byte) (int, error) {
	n, err := c.Conn.Read(env, b)
	c.got = append(c.got, b[:n]...)
	return n, err
}

func (c *tapConn) Close(env transport.Env) error {
	rest, _ := io.ReadAll(transport.Stream{Env: env, Conn: c.Conn})
	c.got = append(c.got, rest...)
	return c.Conn.Close(env)
}

// TestPutControlCarriesReplyAndVerdict: the server answers an upload on its
// control connection with exactly two frames, the reply that names the
// transfer and the verdict once the data is in, and then closes it.
func TestPutControlCarriesReplyAndVerdict(t *testing.T) {
	tcp, _, addr := startServer(t)
	env := &tapEnv{TCPEnv: tcp}
	cl := &Client{Streams: 2}
	if _, err := cl.Put(env, URL(addr, "/bulk/two.bin"), pattern(100<<10)); err != nil {
		t.Fatal(err)
	}
	if len(env.conns) != 1 {
		t.Fatalf("Put dialed %d connections on the caller's env, want the control connection alone", len(env.conns))
	}
	r := bytes.NewReader(env.conns[0].got)
	var frames []*nexus.Buffer
	for r.Len() > 0 {
		f, err := nexus.ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		frames = append(frames, f)
	}
	if len(frames) != 2 {
		t.Fatalf("the control connection carried %d frames, want the reply and the verdict", len(frames))
	}
	for i, f := range frames {
		if ok, err := f.GetBool(); !ok || err != nil {
			t.Fatalf("frame %d does not begin with a true status", i)
		}
	}
}

func TestEmptyAndSingleByteFiles(t *testing.T) {
	env, _, addr := startServer(t)
	cl := &Client{Streams: 3}
	for _, n := range []int{0, 1} {
		url := URL(addr, "/tiny/"+string(rune('a'+n)))
		payload := pattern(n)
		if _, err := cl.Put(env, url, payload); err != nil {
			t.Fatalf("put %d bytes: %v", n, err)
		}
		got, _, err := cl.Get(env, url)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("get %d bytes = %v, %v", n, got, err)
		}
	}
}

func TestGetMissingFile(t *testing.T) {
	env, _, addr := startServer(t)
	cl := &Client{Retries: 1, RetryDelay: 1}
	if _, _, err := cl.Get(env, URL(addr, "/no/such")); err == nil {
		t.Fatal("Get of missing file succeeded")
	}
}

func TestPutTooLarge(t *testing.T) {
	env, _, addr := startServer(t)
	// The server refuses the STOR for its size, before any data moves.
	cl := &Client{Retries: 1, RetryDelay: 1}
	_, err := cl.Put(env, URL(addr, "/huge"), make([]byte, gass.MaxFileSize+1))
	if err == nil {
		t.Fatal("oversize Put succeeded")
	}
}

// countAt is a buffer-backed io.WriterAt that counts the bytes written.
type countAt struct {
	memAt
	n int64
}

func (c *countAt) WriteAt(p []byte, off int64) (int, error) {
	c.n += int64(len(p))
	return c.memAt.WriteAt(p, off)
}

// TestGetResumesFromLedger verifies the restart-marker path: an attempt that
// already holds the first half of the file asks the server for the rest, and
// the server streams only the missing blocks.
func TestGetResumesFromLedger(t *testing.T) {
	env, srv, addr := startServer(t)
	payload := pattern(256 << 10)
	srv.Store.Put("/bulk/r.bin", payload)
	cl := &Client{Streams: 2}

	dst := &countAt{memAt: make(memAt, len(payload))}
	s := newSink(dst)
	s.setSize(int64(len(payload)))
	half := int64(len(payload) / 2)
	if err := s.land(0, payload[:half]); err != nil {
		t.Fatal(err)
	}
	if n, _, err := cl.attempt(env, addr, "/bulk/r.bin", "get", download{s}); err != nil || n != int64(len(payload)) {
		t.Fatalf("resume attempt = %d, %v", n, err)
	}
	if !s.ledger.Complete(int64(len(payload))) || !bytes.Equal(dst.memAt, payload) {
		t.Fatal("resume did not complete the file")
	}
	// Only the missing half moved on the wire.
	if moved := dst.n - half; moved != half {
		t.Fatalf("resume moved %d bytes, want %d", moved, half)
	}
}

// TestPutResumesFromServerPartial verifies upload restart markers: a second
// attempt with the same upload ID learns the server's partial ledger and
// sends only the missing blocks.
func TestPutResumesFromServerPartial(t *testing.T) {
	env, srv, addr := startServer(t)
	payload := pattern(256 << 10)
	key := partKey{"test-upload-1", "/bulk/u.bin"}

	// Seed a server-side partial as an interrupted first attempt would have:
	// the first half present, the rest missing.
	half := int64(len(payload) / 2)
	part := newSink(nil)
	part.setSize(int64(len(payload)))
	if err := part.land(0, payload[:half]); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.parts[key] = part
	srv.mu.Unlock()

	cl := &Client{Streams: 2}
	u := &upload{id: key.id, data: payload}
	if n, _, err := cl.attempt(env, addr, key.path, "put", u); err != nil || n != int64(len(payload)) {
		t.Fatalf("resume attempt = %d, %v", n, err)
	}
	// Only the missing half was sent.
	var sent int64
	for _, r := range u.blocks {
		sent += r.Len
	}
	if sent != half {
		t.Fatalf("resume sent %d bytes, want %d", sent, half)
	}
	stored, err := srv.Store.Get(key.path)
	if err != nil || !bytes.Equal(stored, payload) {
		t.Fatalf("server store holds %d bytes, %v", len(stored), err)
	}
	// The committed upload retires the partial.
	srv.mu.Lock()
	_, live := srv.parts[key]
	srv.mu.Unlock()
	if live {
		t.Fatal("partial survived a committed upload")
	}
}

func TestFetchPublishHelpers(t *testing.T) {
	env, _, addr := startServer(t)
	url := URL(addr, "/h/x")
	payload := pattern(70 << 10)
	if err := Publish(env, url, payload); err != nil {
		t.Fatal(err)
	}
	got, err := Fetch(env, url)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Fetch = %d bytes, %v", len(got), err)
	}
	if _, err := Fetch(env, "x-gass://h:1/p"); err == nil {
		t.Fatal("Fetch accepted a gass URL")
	}
}
