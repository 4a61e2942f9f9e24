package gass

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"nxcluster/internal/transport"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Put("input.dat", []byte("fifty items"))
	got, err := s.Get("/input.dat") // leading slash normalization
	if err != nil || string(got) != "fifty items" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing = %v", err)
	}
	s.Put("/jobs/1/out", []byte("x"))
	s.Put("/jobs/2/out", []byte("y"))
	if l := s.List("/jobs"); len(l) != 2 || l[0] != "/jobs/1/out" {
		t.Fatalf("List = %v", l)
	}
	if err := s.Delete("/jobs/1/out"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/jobs/1/out"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	// Mutating the returned slice must not corrupt the store.
	data, _ := s.Get("/input.dat")
	data[0] = 'X'
	again, _ := s.Get("/input.dat")
	if again[0] == 'X' {
		t.Fatal("Get aliases internal storage")
	}
}

func TestParseAndBuildURL(t *testing.T) {
	hp, path, err := ParseURL("x-gass://rwcp-outer:7020/jobs/1/stdout")
	if err != nil || hp != "rwcp-outer:7020" || path != "/jobs/1/stdout" {
		t.Fatalf("ParseURL = %q, %q, %v", hp, path, err)
	}
	if URL("h:1", "a/b") != "x-gass://h:1/a/b" {
		t.Fatal("URL build")
	}
	for _, bad := range []string{"", "http://h:1/p", "x-gass://hostonly"} {
		if _, _, err := ParseURL(bad); err == nil {
			t.Errorf("ParseURL(%q) succeeded", bad)
		}
	}
}

func startServer(t *testing.T) (*transport.TCPEnv, *Server, string) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")
	srv, addr := serveStore(t, env, NewStore(), 0)
	t.Cleanup(func() { srv.Close(env) })
	return env, srv, addr
}

func TestPublishFetchOverTCP(t *testing.T) {
	env, _, addr := startServer(t)
	payload := bytes.Repeat([]byte("knapsack"), 1000)
	url := URL(addr, "/stage/input.dat")
	if err := Publish(env, url, payload); err != nil {
		t.Fatal(err)
	}
	got, err := Fetch(env, url)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Fetch = %d bytes, %v", len(got), err)
	}
	if _, err := Fetch(env, URL(addr, "/no/such")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing fetch = %v", err)
	}
}

func TestClientCache(t *testing.T) {
	env, srv, addr := startServer(t)
	url := URL(addr, "/data")
	srv.Store.Put("/data", []byte("v1"))
	cl := NewClient()
	if got, err := cl.Get(env, url); err != nil || string(got) != "v1" {
		t.Fatalf("first Get = %q, %v", got, err)
	}
	// A server-side change is hidden by the cache, like the GASS file
	// cache.
	srv.Store.Put("/data", []byte("v2"))
	if got, _ := cl.Get(env, url); string(got) != "v1" {
		t.Fatalf("cached Get = %q, want v1", got)
	}
	if cl.CacheSize() != 1 {
		t.Fatalf("CacheSize = %d", cl.CacheSize())
	}
}

func TestClientCacheLRUEviction(t *testing.T) {
	env, srv, addr := startServer(t)
	srv.Store.Put("/a", bytes.Repeat([]byte("a"), 100))
	srv.Store.Put("/b", bytes.Repeat([]byte("b"), 100))
	srv.Store.Put("/c", bytes.Repeat([]byte("c"), 100))
	cl := NewClientCap(250)
	for _, p := range []string{"/a", "/b"} {
		if _, err := cl.Get(env, URL(addr, p)); err != nil {
			t.Fatal(err)
		}
	}
	if cl.CacheBytes() != 200 || cl.CacheSize() != 2 {
		t.Fatalf("after a,b: %d bytes, %d entries", cl.CacheBytes(), cl.CacheSize())
	}
	// Touch /a so /b becomes least recently used, then fetch /c: only /b
	// should be evicted.
	if _, err := cl.Get(env, URL(addr, "/a")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(env, URL(addr, "/c")); err != nil {
		t.Fatal(err)
	}
	if cl.CacheBytes() != 200 || cl.CacheSize() != 2 {
		t.Fatalf("after evict: %d bytes, %d entries", cl.CacheBytes(), cl.CacheSize())
	}
	srv.Store.Put("/a", []byte("changed"))
	srv.Store.Put("/b", []byte("changed"))
	if got, _ := cl.Get(env, URL(addr, "/a")); len(got) != 100 {
		t.Fatalf("/a was evicted (got %d bytes)", len(got))
	}
	if got, _ := cl.Get(env, URL(addr, "/b")); len(got) != 7 {
		t.Fatalf("/b was not evicted (got %d bytes)", len(got))
	}
}

func TestClientCacheOversizeNotCached(t *testing.T) {
	env, srv, addr := startServer(t)
	srv.Store.Put("/big", bytes.Repeat([]byte("x"), 300))
	cl := NewClientCap(250)
	if got, err := cl.Get(env, URL(addr, "/big")); err != nil || len(got) != 300 {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if cl.CacheSize() != 0 || cl.CacheBytes() != 0 {
		t.Fatalf("oversize entry cached: %d entries, %d bytes",
			cl.CacheSize(), cl.CacheBytes())
	}
}

func TestStoreMaxFileSize(t *testing.T) {
	s := NewStore()
	if err := s.Put("/huge", make([]byte, MaxFileSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize Put = %v, want ErrTooLarge", err)
	}
	if _, err := s.Get("/huge"); !errors.Is(err, ErrNotFound) {
		t.Fatal("oversize Put stored data")
	}
	if err := s.Put("/ok", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestPublishTooLargeOverTCP(t *testing.T) {
	env, _, addr := startServer(t)
	err := Publish(env, URL(addr, "/huge"), make([]byte, MaxFileSize+1))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Publish = %v, want ErrTooLarge", err)
	}
}

func TestEmptyFile(t *testing.T) {
	env, _, addr := startServer(t)
	url := URL(addr, "/empty")
	if err := Publish(env, url, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Fetch(env, url)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty fetch = %v, %v", got, err)
	}
}

func TestQuickPublishFetchRoundTrip(t *testing.T) {
	env, _, addr := startServer(t)
	prop := func(name uint16, data []byte) bool {
		url := URL(addr, "/q/"+itoa(int(name)))
		if err := Publish(env, url, data); err != nil {
			return false
		}
		got, err := Fetch(env, url)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	digits := "0123456789"
	if n == 0 {
		return "0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{digits[n%10]}, out...)
		n /= 10
	}
	return string(out)
}

// TestStoreSharedReadAndOwningWrite pins the payload-ownership contract:
// View shares the stored slice but cannot reach the store through append,
// Get still hands out an isolated copy, Adopt stores the caller's slice
// itself, and a write replaces a file without touching slices already handed
// out.
func TestStoreSharedReadAndOwningWrite(t *testing.T) {
	s := NewStore()
	first := []byte("first contents")
	if err := s.Adopt("/f", first); err != nil {
		t.Fatal(err)
	}
	v, err := s.View("f")
	if err != nil || string(v) != "first contents" {
		t.Fatalf("View = %q, %v", v, err)
	}
	if &v[0] != &first[0] {
		t.Error("View after Adopt copied the data; it should share the adopted slice")
	}
	if cap(v) != len(v) {
		t.Errorf("View cap = %d, len = %d; capacity must be clipped to length", cap(v), len(v))
	}
	_ = append(v, " and more"...)
	if again, _ := s.View("/f"); string(again) != "first contents" {
		t.Errorf("View after append to an earlier View = %q", again)
	}
	got, _ := s.Get("/f")
	got[0] = 'X'
	if again, _ := s.View("/f"); again[0] == 'X' {
		t.Error("Get aliases internal storage")
	}
	// Value semantics under replace: earlier readers keep what they read.
	if err := s.Put("/f", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if string(v) != "first contents" {
		t.Errorf("earlier View changed to %q after Put replaced the file", v)
	}
	if now, _ := s.View("/f"); string(now) != "second" {
		t.Errorf("View after Put = %q", now)
	}
	if _, err := s.View("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("View of a missing file = %v", err)
	}
	// Both writes bound the file size, and a refused write stores nothing.
	huge := make([]byte, MaxFileSize+1)
	if err := s.Put("/huge", huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize Put = %v, want ErrTooLarge", err)
	}
	if err := s.Adopt("/huge", huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize Adopt = %v, want ErrTooLarge", err)
	}
	if _, err := s.View("/huge"); !errors.Is(err, ErrNotFound) {
		t.Errorf("oversize write left a file behind: %v", err)
	}
}

// TestStoreConcurrentReadersAndWriters is for the race detector: readers
// hold shared slices while writers replace the file under them.
func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	s := NewStore()
	if err := s.Put("/f", []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := bytes.Repeat([]byte{byte(w)}, 4)
				if i%2 == 0 {
					_ = s.Adopt("/f", b)
				} else {
					_ = s.Put("/f", b)
				}
				v, err := s.View("/f")
				if err != nil || len(v) != 4 || v[0] != v[3] {
					t.Errorf("View = %v, %v: a file is one writer's four equal bytes", v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFillPatternMatchesNaiveLoop checks the doubling fill against the
// per-byte loop it replaced, for both patterns in use (the transfer sweep's
// i*7 + i>>10 and the chaos run's i*11 + i>>9), at the lengths where the
// period boundary could go wrong.
func TestFillPatternMatchesNaiveLoop(t *testing.T) {
	for _, p := range []struct{ mul, shift int }{{7, 10}, {11, 9}} {
		period := 256 << p.shift
		for _, n := range []int{0, 1, period - 1, period, period + 1, 3*period + 7} {
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*p.mul + i>>p.shift)
			}
			got := bytes.Repeat([]byte{0xa5}, n) // stale contents must be overwritten
			FillPattern(got, p.mul, p.shift)
			if !bytes.Equal(got, want) {
				t.Errorf("FillPattern(len %d, mul %d, shift %d) differs from the naive loop", n, p.mul, p.shift)
			}
		}
	}
}
