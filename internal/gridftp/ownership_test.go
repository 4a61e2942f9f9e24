package gridftp

import (
	"bytes"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// allocatedBy returns the bytes the whole process allocates while f runs
// (TotalAlloc is cumulative and process-wide, so the server goroutines f
// talks to are counted too).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSizeDoesNotCopyTheFile pins opSize to the shared read: reporting the
// length of a 1 MiB file costs a few frames, not a copy of the file.
func TestSizeDoesNotCopyTheFile(t *testing.T) {
	env, srv, addr := startServer(t)
	const fileSize = 1 << 20
	if err := srv.Store.Adopt("/bulk/big.bin", pattern(fileSize)); err != nil {
		t.Fatal(err)
	}
	cl := &Client{}
	url := URL(addr, "/bulk/big.bin")
	size := func() {
		if sz, err := cl.Size(env, url); err != nil || sz != fileSize {
			t.Fatalf("Size = %d, %v", sz, err)
		}
	}
	size() // warm the dial path
	if got := allocatedBy(size); got >= fileSize/16 {
		t.Errorf("Size of a %d-byte file allocated %d bytes, want O(1) (< %d)", fileSize, got, fileSize/16)
	}
}

// TestGetChannelKeepsOneBlockBuffer runs runGetChannel against a data
// channel that sends one block at MaxBlock and then sixteen 64 KiB ones: the
// bytes land where their offsets say, and the channel allocates its block
// buffer once (a fresh buffer per block would allocate the 2 MiB moved).
func TestGetChannelKeepsOneBlockBuffer(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	const small, nSmall = 64 << 10, 16
	file := pattern(MaxBlock + nSmall*small)
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		defer c.Close(env)
		st := transport.Stream{Env: env, Conn: c}
		if _, err := nexus.ReadFrame(st, 0); err != nil { // the channel handshake
			return
		}
		_ = writeBlock(st, 0, 0, file[:MaxBlock])
		for off := MaxBlock; off < len(file); off += small {
			_ = writeBlock(st, 0, int64(off), file[off:off+small])
		}
		_ = writeEOD(st)
	}()

	cl := &Client{}
	sink := newGetSink()
	sink.setSize(int64(len(file)))
	w := cl.armWatchdog(env, &sink.progress) // inert: no ProgressTimeout
	var chanErr error
	got := allocatedBy(func() { chanErr = cl.runGetChannel(env, w, l.Addr(), "r1", 0, sink) })
	if chanErr != nil {
		t.Fatal(chanErr)
	}
	if !sink.ledger.Complete(int64(len(file))) || !bytes.Equal(sink.buf, file) {
		t.Fatal("channel did not deliver the file")
	}
	if got >= MaxBlock+MaxBlock/2 {
		t.Errorf("channel allocated %d bytes for %d moved, want one %d-byte block buffer and change",
			got, len(file), MaxBlock)
	}
}

// TestLateBlockAfterCommitIsDropped covers the hazard of committing an
// upload without a copy: the store owns the assembly buffer from the commit
// on, so a data channel still attached to the partial must not write into
// it. Channel 1 delivers its share and stays open; channel 0 completes the
// file, the server commits; channel 1 then sends a block of garbage.
func TestLateBlockAfterCommitIsDropped(t *testing.T) {
	env, srv, addr := startServer(t)
	const path, uploadID, block = "/bulk/late.bin", "late-upload", 64 << 10
	file := pattern(2 * block)

	ctrl, err := env.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close(env)
	cst := transport.Stream{Env: env, Conn: ctrl}
	req := nexus.NewBuffer()
	req.PutInt32(opStor)
	req.PutString(path)
	req.PutInt64(int64(len(file)))
	req.PutInt32(2)
	req.PutString(uploadID)
	if err := nexus.WriteFrame(cst, req); err != nil {
		t.Fatal(err)
	}
	resp, err := nexus.ReadFrame(cst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStatus(resp); err != nil {
		t.Fatal(err)
	}
	id, _ := resp.GetString()
	dataAddr, _ := resp.GetString()

	open := func(idx int32) transport.Stream {
		t.Helper()
		c, err := env.Dial(dataAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(env) })
		st := transport.Stream{Env: env, Conn: c}
		hs := nexus.NewBuffer()
		hs.PutString(id)
		hs.PutInt32(idx)
		if err := nexus.WriteFrame(st, hs); err != nil {
			t.Fatal(err)
		}
		return st
	}
	ch1 := open(1)
	if err := writeBlock(ch1, 0, block, file[block:]); err != nil {
		t.Fatal(err)
	}
	// Channel 0 may only finish the file once channel 1's block has landed,
	// or its EOD would report the ledger incomplete.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		landed := srv.parts[uploadID].ledger.Bytes()
		srv.mu.Unlock()
		if landed == block {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("channel 1's block never landed")
		}
	}
	ch0 := open(0)
	if err := writeBlock(ch0, 0, 0, file[:block]); err != nil {
		t.Fatal(err)
	}
	if err := writeEOD(ch0); err != nil {
		t.Fatal(err)
	}
	final, err := nexus.ReadFrame(cst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStatus(final); err != nil {
		t.Fatalf("upload did not commit: %v", err)
	}

	// The late block, then EOD; the server closes the channel once it has
	// consumed both, which is the event to wait on.
	if err := writeBlock(ch1, 0, 0, bytes.Repeat([]byte{0xee}, block)); err != nil {
		t.Fatal(err)
	}
	if err := writeEOD(ch1); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, ch1); err != nil {
		t.Fatalf("waiting for the server to close channel 1: %v", err)
	}
	stored, err := srv.Store.View(path)
	if err != nil || !bytes.Equal(stored, file) {
		t.Fatalf("stored file changed after a late block (err %v)", err)
	}
}

// TestConcurrentGetsShareTheStoredFile is for the race detector: several
// downloads read the store's one slice at once while an upload replaces the
// file; every download delivers one version or the other, whole.
func TestConcurrentGetsShareTheStoredFile(t *testing.T) {
	env, srv, addr := startServer(t)
	old := pattern(200 << 10)
	next := bytes.Repeat([]byte{0x5a}, len(old))
	if err := srv.Store.Adopt("/bulk/shared.bin", old); err != nil {
		t.Fatal(err)
	}
	url := URL(addr, "/bulk/shared.bin")
	const readers = 4
	done := make(chan struct{})
	var bad atomic.Int32
	for i := 0; i < readers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			got, _, err := (&Client{Streams: 2}).Get(env, url)
			if err != nil || !(bytes.Equal(got, old) || bytes.Equal(got, next)) {
				bad.Add(1)
			}
		}()
	}
	if _, err := (&Client{Streams: 2}).Put(env, url, next); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < readers; i++ {
		<-done
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent downloads failed or mixed two versions of the file", n, readers)
	}
}
