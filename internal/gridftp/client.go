package gridftp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// TransferStats reports one completed transfer.
type TransferStats struct {
	// Bytes is the file size moved.
	Bytes int64
	// Elapsed is the virtual wall time from first control dial to completion.
	Elapsed time.Duration
	// Streams is the parallel data-channel count used.
	Streams int
	// Resumes counts restart-marker resumes after interruptions (0 for an
	// undisturbed transfer).
	Resumes int
}

// Goodput returns application bytes per second over the whole transfer.
func (s *TransferStats) Goodput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Elapsed.Seconds()
}

// Client moves files against gridftp servers over parallel data channels.
// The zero value works (direct dialing, DefaultStreams channels); a Dialer
// with proxy config routes every channel through the Nexus Proxy relay.
type Client struct {
	// Dialer provides firewall traversal for control and data channels.
	Dialer proxy.Dialer
	// Streams is the parallel data-channel count (default DefaultStreams).
	Streams int
	// BlockSize is the requested block granularity (default
	// DefaultBlockSize); the server's own block size governs downloads.
	BlockSize int
	// ProgressTimeout, when > 0, arms a watchdog that aborts an attempt's
	// channels after that long without a single byte of progress (e.g.
	// during a WAN outage) so the restart-marker resume logic can take over.
	ProgressTimeout time.Duration
	// Retries bounds resume attempts after an interrupted attempt
	// (default 4).
	Retries int
	// RetryDelay spaces resume attempts (linear backoff, default 50ms).
	RetryDelay time.Duration

	mu         sync.Mutex
	nextUpload int
}

func (c *Client) streams() int {
	if c.Streams > 0 {
		return c.Streams
	}
	return DefaultStreams
}

func (c *Client) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return DefaultBlockSize
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

func (c *Client) retryDelay() time.Duration {
	if c.RetryDelay > 0 {
		return c.RetryDelay
	}
	return 50 * time.Millisecond
}

// getSink is the shared receive state of a download: the assembly buffer,
// the restart-marker ledger, and a progress counter the watchdog samples.
// Parallel channels (and striped sources) all land blocks here.
type getSink struct {
	mu       sync.Mutex
	size     int64 // -1 until the first server reply
	buf      []byte
	ledger   Ledger
	progress atomic.Int64
}

func newGetSink() *getSink { return &getSink{size: -1} }

func (g *getSink) setSize(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.size < 0 {
		g.size = n
		g.buf = make([]byte, n)
	}
}

func (g *getSink) land(off int64, payload []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if off+int64(len(payload)) > g.size {
		return fmt.Errorf("gridftp: block [%d,+%d) beyond size %d", off, len(payload), g.size)
	}
	copy(g.buf[off:], payload)
	g.ledger.Add(off, int64(len(payload)))
	g.progress.Add(int64(len(payload)))
	return nil
}

// Get downloads url over parallel data channels, resuming from restart
// markers after interruptions.
func (c *Client) Get(env transport.Env, url string) ([]byte, *TransferStats, error) {
	hostport, path, err := ParseURL(url)
	if err != nil {
		return nil, nil, err
	}
	start := env.Now()
	o := obs.From(env)
	var span obs.TraceContext
	if o != nil {
		span = o.BeginChild(start, obs.CtxOf(env), "gridftp", "get", env.Hostname(), obs.Str("url", url))
	}
	sink := newGetSink()
	stats := &TransferStats{Streams: c.streams()}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			stats.Resumes++
			env.Sleep(c.retryDelay() * time.Duration(attempt))
		}
		lastErr = c.fetch(env, hostport, path, c.streams(), &sink.ledger, sink)
		if sink.size >= 0 && sink.ledger.Complete(sink.size) {
			stats.Bytes = sink.size
			stats.Elapsed = env.Now() - start
			if o != nil {
				o.EndSpan(env.Now(), span, "gridftp", "get", env.Hostname(),
					obs.Int("bytes", stats.Bytes), obs.Int("resumes", int64(stats.Resumes)))
				o.Metrics().Counter("gridftp." + env.Hostname() + ".bytes_in").Add(stats.Bytes)
			}
			return sink.buf, stats, nil
		}
		if attempt >= c.retries() {
			break
		}
	}
	if lastErr == nil {
		lastErr = errIncomplete
	}
	err = fmt.Errorf("gridftp: get %s after %d resumes: %w", url, stats.Resumes, lastErr)
	if o != nil {
		o.EndSpan(env.Now(), span, "gridftp", "get", env.Hostname(), obs.Str("err", err.Error()))
	}
	return nil, stats, err
}

// fetch runs one download attempt against one server: announce the have
// ledger, then pull the server's block list over streams parallel channels
// into sink. An error (or silent stall tripping the watchdog) leaves the
// ledger holding whatever landed.
func (c *Client) fetch(env transport.Env, hostport, path string, streams int, have *Ledger, sink *getSink) error {
	ctrl, err := c.Dialer.Dial(env, hostport)
	if err != nil {
		return fmt.Errorf("gridftp: dial %s: %w", hostport, err)
	}
	defer ctrl.Close(env)
	st := transport.Stream{Env: env, Conn: ctrl}
	req := nexus.NewBuffer()
	req.PutInt32(opRetr)
	req.PutString(path)
	sink.mu.Lock()
	req.PutBytes(have.Encode())
	sink.mu.Unlock()
	req.PutInt32(int32(streams))
	if err := nexus.WriteFrame(st, req); err != nil {
		return err
	}
	resp, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return err
	}
	if err := checkStatus(resp); err != nil {
		return err
	}
	size, e1 := resp.GetInt64()
	id, e2 := resp.GetString()
	dataAddr, e3 := resp.GetString()
	if e1 != nil || e2 != nil || e3 != nil {
		return fmt.Errorf("gridftp: malformed RETR reply")
	}
	sink.setSize(size)

	w := c.armWatchdog(env, &sink.progress)
	defer w.disarm()
	done := transport.NewQueue[error](env)
	for i := 0; i < streams; i++ {
		idx := i
		env.Spawn("gridftp:get-chan", func(e transport.Env) {
			done.Put(e, c.runGetChannel(e, w, dataAddr, id, idx, sink))
		})
	}
	var chanErr error
	for i := 0; i < streams; i++ {
		if err, _ := done.Get(env); err != nil && chanErr == nil {
			chanErr = err
		}
	}
	return chanErr
}

// runGetChannel reads one data channel's blocks into the sink.
func (c *Client) runGetChannel(env transport.Env, w *watchdog, dataAddr, id string, idx int, sink *getSink) error {
	conn, err := c.Dialer.Dial(env, dataAddr)
	if err != nil {
		return err
	}
	defer conn.Close(env)
	w.track(conn)
	st := transport.Stream{Env: env, Conn: conn}
	hs := nexus.NewBuffer()
	hs.PutString(id)
	hs.PutInt32(int32(idx))
	if err := nexus.WriteFrame(st, hs); err != nil {
		return err
	}
	var buf []byte // this channel's block buffer, grown by readBlock
	for {
		flags, off, payload, err := readBlock(st, &buf)
		if err != nil {
			return err
		}
		if flags&flagEOD != 0 {
			return nil
		}
		if err := sink.land(off, payload); err != nil {
			return err
		}
	}
}

// Put uploads data to url over parallel data channels, resuming from the
// server's restart ledger after interruptions.
func (c *Client) Put(env transport.Env, url string, data []byte) (*TransferStats, error) {
	hostport, path, err := ParseURL(url)
	if err != nil {
		return nil, err
	}
	start := env.Now()
	o := obs.From(env)
	var span obs.TraceContext
	if o != nil {
		span = o.BeginChild(start, obs.CtxOf(env), "gridftp", "put", env.Hostname(),
			obs.Str("url", url), obs.Int("bytes", int64(len(data))))
	}
	c.mu.Lock()
	c.nextUpload++
	uploadID := fmt.Sprintf("%s:%s#%d", env.Hostname(), path, c.nextUpload)
	c.mu.Unlock()
	stats := &TransferStats{Streams: c.streams()}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			stats.Resumes++
			env.Sleep(c.retryDelay() * time.Duration(attempt))
		}
		var complete bool
		complete, lastErr = c.putOnce(env, hostport, path, data, uploadID)
		if complete {
			stats.Bytes = int64(len(data))
			stats.Elapsed = env.Now() - start
			if o != nil {
				o.EndSpan(env.Now(), span, "gridftp", "put", env.Hostname(),
					obs.Int("bytes", stats.Bytes), obs.Int("resumes", int64(stats.Resumes)))
				o.Metrics().Counter("gridftp." + env.Hostname() + ".bytes_out").Add(stats.Bytes)
			}
			return stats, nil
		}
		if attempt >= c.retries() {
			break
		}
	}
	if lastErr == nil {
		lastErr = errIncomplete
	}
	err = fmt.Errorf("gridftp: put %s after %d resumes: %w", url, stats.Resumes, lastErr)
	if o != nil {
		o.EndSpan(env.Now(), span, "gridftp", "put", env.Hostname(), obs.Str("err", err.Error()))
	}
	return stats, err
}

// putOnce runs one upload attempt: learn the server's restart ledger, send
// the missing blocks over parallel channels, then wait for the server's
// final verdict on the control channel.
func (c *Client) putOnce(env transport.Env, hostport, path string, data []byte, uploadID string) (bool, error) {
	ctrl, err := c.Dialer.Dial(env, hostport)
	if err != nil {
		return false, fmt.Errorf("gridftp: dial %s: %w", hostport, err)
	}
	defer ctrl.Close(env)
	st := transport.Stream{Env: env, Conn: ctrl}
	req := nexus.NewBuffer()
	req.PutInt32(opStor)
	req.PutString(path)
	req.PutInt64(int64(len(data)))
	req.PutInt32(int32(c.streams()))
	req.PutString(uploadID)
	if err := nexus.WriteFrame(st, req); err != nil {
		return false, err
	}
	resp, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return false, err
	}
	if err := checkStatus(resp); err != nil {
		return false, err
	}
	id, e1 := resp.GetString()
	dataAddr, e2 := resp.GetString()
	ledgerBytes, e3 := resp.GetBytes()
	if e1 != nil || e2 != nil || e3 != nil {
		return false, fmt.Errorf("gridftp: malformed STOR reply")
	}
	serverHas, err := DecodeLedger(ledgerBytes)
	if err != nil {
		return false, err
	}
	blocks := chopRanges(serverHas.Missing(int64(len(data))), c.blockSize())

	var progress atomic.Int64
	w := c.armWatchdog(env, &progress)
	defer w.disarm()
	w.track(ctrl) // a stalled final-frame read must also trip the watchdog
	streams := c.streams()
	done := transport.NewQueue[error](env)
	for i := 0; i < streams; i++ {
		idx := i
		env.Spawn("gridftp:put-chan", func(e transport.Env) {
			done.Put(e, c.runPutChannel(e, w, dataAddr, id, idx, streams, blocks, data, &progress))
		})
	}
	var chanErr error
	for i := 0; i < streams; i++ {
		if err, _ := done.Get(env); err != nil && chanErr == nil {
			chanErr = err
		}
	}
	final, err := nexus.ReadFrame(st, 0)
	if err != nil {
		if chanErr != nil {
			return false, chanErr
		}
		return false, err
	}
	if err := checkStatus(final); err != nil {
		return false, err
	}
	return true, nil
}

// runPutChannel writes one channel's round-robin share of the block list.
func (c *Client) runPutChannel(env transport.Env, w *watchdog, dataAddr, id string, idx, streams int, blocks []Range, data []byte, progress *atomic.Int64) error {
	conn, err := c.Dialer.Dial(env, dataAddr)
	if err != nil {
		return err
	}
	defer conn.Close(env)
	w.track(conn)
	st := transport.Stream{Env: env, Conn: conn}
	hs := nexus.NewBuffer()
	hs.PutString(id)
	hs.PutInt32(int32(idx))
	if err := nexus.WriteFrame(st, hs); err != nil {
		return err
	}
	for i := idx; i < len(blocks); i += streams {
		r := blocks[i]
		if err := writeBlock(st, 0, r.Off, data[r.Off:r.End()]); err != nil {
			return err
		}
		progress.Add(r.Len)
	}
	return writeEOD(st)
}

// GetStriped downloads one file striped across multiple replica servers:
// source j serves the blocks with index ≡ j (mod len(urls)), all landing in
// one shared sink. If any stripe is interrupted, the remainder is fetched
// from the first source via the normal resume path.
func (c *Client) GetStriped(env transport.Env, urls []string) ([]byte, *TransferStats, error) {
	if len(urls) == 0 {
		return nil, nil, fmt.Errorf("gridftp: striped get needs at least one URL")
	}
	if len(urls) == 1 {
		return c.Get(env, urls[0])
	}
	type source struct{ hostport, path string }
	srcs := make([]source, len(urls))
	for i, u := range urls {
		hp, p, err := ParseURL(u)
		if err != nil {
			return nil, nil, err
		}
		srcs[i] = source{hp, p}
	}
	start := env.Now()
	size, err := c.Size(env, urls[0])
	if err != nil {
		return nil, nil, err
	}
	o := obs.From(env)
	var span obs.TraceContext
	if o != nil {
		span = o.BeginChild(start, obs.CtxOf(env), "gridftp", "get-striped", env.Hostname(),
			obs.Int("bytes", size), obs.Int("sources", int64(len(urls))))
	}
	sink := newGetSink()
	sink.setSize(size)
	// Assign whole blocks round-robin across sources; each source is told
	// the complement of its stripe as "already held", so it streams exactly
	// its own blocks.
	all := chopRanges([]Range{{Off: 0, Len: size}}, c.blockSize())
	perStripe := c.streams() / len(urls)
	if perStripe < 1 {
		perStripe = 1
	}
	done := transport.NewQueue[error](env)
	for j := range srcs {
		var stripe []Range
		for i := j; i < len(all); i += len(srcs) {
			stripe = append(stripe, all[i])
		}
		have := complementLedger(size, stripe)
		src := srcs[j]
		env.Spawn("gridftp:stripe", func(e transport.Env) {
			done.Put(e, c.fetch(e, src.hostport, src.path, perStripe, have, sink))
		})
	}
	var stripeErr error
	for range srcs {
		if err, _ := done.Get(env); err != nil && stripeErr == nil {
			stripeErr = err
		}
	}
	stats := &TransferStats{Streams: perStripe * len(srcs)}
	if !sink.ledger.Complete(size) {
		// Fall back to the first source for whatever the stripes missed.
		for attempt := 0; attempt <= c.retries() && !sink.ledger.Complete(size); attempt++ {
			stats.Resumes++
			if err := c.fetch(env, srcs[0].hostport, srcs[0].path, c.streams(), &sink.ledger, sink); err != nil {
				stripeErr = err
			}
		}
	}
	if !sink.ledger.Complete(size) {
		if stripeErr == nil {
			stripeErr = errIncomplete
		}
		err := fmt.Errorf("gridftp: striped get: %w", stripeErr)
		if o != nil {
			o.EndSpan(env.Now(), span, "gridftp", "get-striped", env.Hostname(), obs.Str("err", err.Error()))
		}
		return nil, stats, err
	}
	stats.Bytes = size
	stats.Elapsed = env.Now() - start
	if o != nil {
		o.EndSpan(env.Now(), span, "gridftp", "get-striped", env.Hostname(),
			obs.Int("bytes", size), obs.Int("resumes", int64(stats.Resumes)))
	}
	return sink.buf, stats, nil
}

// complementLedger builds the ledger covering [0, size) minus the given
// sorted, disjoint ranges.
func complementLedger(size int64, ranges []Range) *Ledger {
	l := &Ledger{}
	var pos int64
	for _, r := range ranges {
		if r.Off > pos {
			l.Add(pos, r.Off-pos)
		}
		if r.End() > pos {
			pos = r.End()
		}
	}
	if pos < size {
		l.Add(pos, size-pos)
	}
	return l
}

// Size asks a server for a file's size.
func (c *Client) Size(env transport.Env, url string) (int64, error) {
	hostport, path, err := ParseURL(url)
	if err != nil {
		return 0, err
	}
	ctrl, err := c.Dialer.Dial(env, hostport)
	if err != nil {
		return 0, fmt.Errorf("gridftp: dial %s: %w", hostport, err)
	}
	defer ctrl.Close(env)
	st := transport.Stream{Env: env, Conn: ctrl}
	req := nexus.NewBuffer()
	req.PutInt32(opSize)
	req.PutString(path)
	if err := nexus.WriteFrame(st, req); err != nil {
		return 0, err
	}
	resp, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return 0, err
	}
	if err := checkStatus(resp); err != nil {
		return 0, err
	}
	return resp.GetInt64()
}

// ThirdParty asks the server holding srcURL to push the file directly to
// destURL (server-to-server; the data never touches this client). It
// returns the bytes moved.
func (c *Client) ThirdParty(env transport.Env, srcURL, destURL string) (int64, error) {
	hostport, path, err := ParseURL(srcURL)
	if err != nil {
		return 0, err
	}
	if _, _, err := ParseURL(destURL); err != nil {
		return 0, err
	}
	ctrl, err := c.Dialer.Dial(env, hostport)
	if err != nil {
		return 0, fmt.Errorf("gridftp: dial %s: %w", hostport, err)
	}
	defer ctrl.Close(env)
	st := transport.Stream{Env: env, Conn: ctrl}
	req := nexus.NewBuffer()
	req.PutInt32(opXfer)
	req.PutString(path)
	req.PutString(destURL)
	req.PutInt32(int32(c.streams()))
	if err := nexus.WriteFrame(st, req); err != nil {
		return 0, err
	}
	resp, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return 0, err
	}
	if err := checkStatus(resp); err != nil {
		return 0, err
	}
	return resp.GetInt64()
}

// checkStatus consumes a reply frame's status bool, converting a server
// error message into an error.
func checkStatus(resp *nexus.Buffer) error {
	ok, err := resp.GetBool()
	if err != nil {
		return err
	}
	if !ok {
		msg, err := resp.GetString()
		if err != nil {
			return fmt.Errorf("gridftp: malformed error reply")
		}
		return fmt.Errorf("gridftp: server: %s", msg)
	}
	return nil
}

// watchdog aborts an attempt's connections after ProgressTimeout without
// any byte progress — the recovery trigger for transfers stalled by a WAN
// outage (simnet links stall rather than drop, so without the watchdog a
// dead attempt would wait out the whole outage instead of resuming).
type watchdog struct {
	env      transport.Env
	timeout  time.Duration
	progress *atomic.Int64
	mu       sync.Mutex
	conns    []transport.Conn
	stopped  bool
}

// armWatchdog starts the watchdog process if ProgressTimeout is set;
// otherwise returns an inert watchdog.
func (c *Client) armWatchdog(env transport.Env, progress *atomic.Int64) *watchdog {
	w := &watchdog{env: env, timeout: c.ProgressTimeout, progress: progress}
	if w.timeout <= 0 {
		return w
	}
	env.Spawn("gridftp:watchdog", func(e transport.Env) {
		last := w.progress.Load()
		for {
			e.Sleep(w.timeout)
			w.mu.Lock()
			if w.stopped {
				w.mu.Unlock()
				return
			}
			cur := w.progress.Load()
			if cur == last {
				conns := append([]transport.Conn(nil), w.conns...)
				w.stopped = true
				w.mu.Unlock()
				if o := obs.From(e); o != nil {
					o.EmitCtx(e.Now(), obs.CtxOf(e), "gridftp", "stall-abort", e.Hostname(),
						obs.Int("conns", int64(len(conns))))
				}
				for _, conn := range conns {
					transport.Abort(e, conn)
				}
				return
			}
			last = cur
			w.mu.Unlock()
		}
	})
	return w
}

// track registers a connection for stall teardown.
func (w *watchdog) track(c transport.Conn) {
	if w.timeout <= 0 {
		return
	}
	w.mu.Lock()
	w.conns = append(w.conns, c)
	w.mu.Unlock()
}

// disarm stops the watchdog.
func (w *watchdog) disarm() {
	if w.timeout <= 0 {
		return
	}
	w.mu.Lock()
	w.stopped = true
	w.conns = nil
	w.mu.Unlock()
}

// Fetch retrieves a gridftp URL with default settings (the staging-path
// counterpart of gass.Fetch).
func Fetch(env transport.Env, url string) ([]byte, error) {
	data, _, err := (&Client{}).Get(env, url)
	return data, err
}

// Publish stores data at a gridftp URL with default settings.
func Publish(env transport.Env, url string, data []byte) error {
	_, err := (&Client{}).Put(env, url, data)
	return err
}
