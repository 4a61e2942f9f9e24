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

// serveBlocks listens on loopback TCP for one data channel and sends it
// file as one block at MaxBlock and then 64 KiB ones; it returns the
// client's end of the channel.
func serveBlocks(t *testing.T, file []byte) (*transport.TCPEnv, transport.Stream) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(env) })
	const small = 64 << 10
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		defer c.Close(env)
		st := transport.Stream{Env: env, Conn: c}
		_ = writeBlock(st, 0, 0, file[:MaxBlock])
		for off := MaxBlock; off < len(file); off += small {
			_ = writeBlock(st, 0, int64(off), file[off:off+small])
		}
		_ = writeEOD(st)
	}()
	c, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(env) })
	return env, transport.Stream{Env: env, Conn: c}
}

// TestGetChannelKeepsOneBlockBuffer runs the receiver on a data channel
// that sends one block at MaxBlock and then sixteen 64 KiB ones: the bytes
// land where their offsets say, progress counts them, and the channel
// allocates its block buffer once (a fresh buffer per block would allocate
// the 2 MiB moved).
func TestGetChannelKeepsOneBlockBuffer(t *testing.T) {
	file := pattern(MaxBlock + 16*64<<10)
	_, st := serveBlocks(t, file)
	s := newSink(nil)
	s.setSize(int64(len(file)))
	var progress atomic.Int64
	var chanErr error
	got := allocatedBy(func() { chanErr = s.receive(st, &progress) })
	if chanErr != nil {
		t.Fatal(chanErr)
	}
	if !s.ledger.Complete(int64(len(file))) || !bytes.Equal(s.buf, file) || progress.Load() != int64(len(file)) {
		t.Fatal("channel did not deliver the file")
	}
	if got >= MaxBlock+MaxBlock/2 {
		t.Errorf("channel allocated %d bytes for %d moved, want one %d-byte block buffer and change",
			got, len(file), MaxBlock)
	}
}

// TestGetToChannelKeepsOneBlockBuffer is its twin for GetTo's sink: sizing
// the sink and landing the file into a WriterAt allocate one block buffer and
// change, not the file (an assembly buffer would add its 2 MiB).
func TestGetToChannelKeepsOneBlockBuffer(t *testing.T) {
	file := pattern(MaxBlock + 16*64<<10)
	_, st := serveBlocks(t, file)
	dst := make(memAt, len(file))
	s := newSink(dst)
	var chanErr error
	got := allocatedBy(func() {
		s.setSize(int64(len(file)))
		chanErr = s.receive(st, nil)
	})
	if chanErr != nil {
		t.Fatal(chanErr)
	}
	if !s.ledger.Complete(int64(len(file))) || s.buf != nil || !bytes.Equal(dst, file) {
		t.Fatal("channel did not deliver the file to the WriterAt alone")
	}
	if got >= MaxBlock+MaxBlock/2 {
		t.Errorf("channel allocated %d bytes for a %d-byte file, want one %d-byte block buffer and change",
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
	resp, err := nexus.Call(cst, req)
	if err != nil {
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
		part := srv.parts[partKey{uploadID, path}]
		srv.mu.Unlock()
		part.mu.Lock()
		landed := part.ledger.Bytes()
		part.mu.Unlock()
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
	if _, err := nexus.ReadReply(cst); err != nil {
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
