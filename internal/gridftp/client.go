package gridftp

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"nxcluster/internal/gass"
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
	// ProgressTimeout, when > 0, arms a watchdog that aborts an attempt's
	// channels after that long without a single byte of progress (e.g.
	// during a WAN outage) so the restart-marker resume logic can take over.
	ProgressTimeout time.Duration
	// Retries bounds resume attempts after an interrupted attempt
	// (default 4).
	Retries int
	// RetryDelay spaces resume attempts (linear backoff, default 50ms).
	RetryDelay time.Duration
}

func (c *Client) streams() int {
	if c.Streams > 0 {
		return c.Streams
	}
	return DefaultStreams
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

// Get downloads url over parallel data channels, resuming from restart
// markers after interruptions, and returns the file.
func (c *Client) Get(env transport.Env, url string) ([]byte, *TransferStats, error) {
	s := newSink(nil)
	stats, err := c.run(env, url, "get", "bytes_in", download{s})
	if err != nil {
		return nil, stats, err
	}
	return s.buf, stats, nil
}

// GetTo downloads url like Get, but writes each block to dst at its file
// offset as it arrives instead of assembling the file in memory. Blocks come
// in any order, one WriteAt at a time. An error from dst ends the download
// at once, without resuming; the returned error wraps it.
func (c *Client) GetTo(env transport.Env, url string, dst io.WriterAt) (*TransferStats, error) {
	return c.run(env, url, "get", "bytes_in", download{newSink(dst)})
}

// Put uploads data to url over parallel data channels, resuming from the
// server's restart ledger after interruptions.
func (c *Client) Put(env transport.Env, url string, data []byte) (*TransferStats, error) {
	draw := transport.RandOf(env) // seeded on simnet
	if draw == nil {
		draw = rand.Uint64
	}
	u := &upload{id: fmt.Sprintf("%016x", draw()), data: data}
	return c.run(env, url, "put", "bytes_out", u, obs.Int("bytes", int64(len(data))))
}

// A leg is what one direction adds to the transfer engine (run and
// attempt): the RETR or STOR request and reply, and what a data channel
// does with its blocks. download and upload are the two.
type leg interface {
	// request writes one attempt's control request.
	request(req *nexus.Buffer, path string, streams int)
	// reply reads the control reply: the transfer ID, the data address, and
	// whether the server's verdict follows the data on the control channel.
	reply(resp *nexus.Buffer) (id, dataAddr string, verdict bool, err error)
	// channel moves data channel idx's blocks, counting them in progress.
	channel(st transport.Stream, idx, streams int, progress *atomic.Int64) error
	// end returns the file size once the attempt's channels are done and
	// the receiver holds the whole file, or the error and whether a resume
	// may mend it.
	end(ctrl transport.Stream, chanErr error) (n int64, retry bool, err error)
}

// run is the transfer loop behind Get, GetTo and Put: attempt l, and after
// an interrupted attempt resume from the restart ledger until the file is
// whole or the retries run out. op names the span and the data-channel
// processes, counter the byte metric.
func (c *Client) run(env transport.Env, url, op, counter string, l leg, attrs ...obs.Field) (*TransferStats, error) {
	hostport, path, err := ParseURL(url)
	if err != nil {
		return nil, err
	}
	start := env.Now()
	o := obs.From(env)
	var span obs.TraceContext
	if o != nil {
		span = o.BeginChild(start, obs.CtxOf(env), "gridftp", op, env.Hostname(),
			append([]obs.Field{obs.Str("url", url)}, attrs...)...)
	}
	stats := &TransferStats{Streams: c.streams()}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			stats.Resumes++
			env.Sleep(c.retryDelay() * time.Duration(attempt))
		}
		var retry bool
		stats.Bytes, retry, err = c.attempt(env, hostport, path, op, l)
		if err == nil {
			stats.Elapsed = env.Now() - start
			if o != nil {
				o.EndSpan(env.Now(), span, "gridftp", op, env.Hostname(),
					obs.Int("bytes", stats.Bytes), obs.Int("resumes", int64(stats.Resumes)))
				o.Metrics().Counter("gridftp." + env.Hostname() + "." + counter).Add(stats.Bytes)
			}
			return stats, nil
		}
		if !retry || attempt >= c.retries() {
			break
		}
	}
	err = fmt.Errorf("gridftp: %s %s after %d resumes: %w", op, url, stats.Resumes, err)
	if o != nil {
		o.EndSpan(env.Now(), span, "gridftp", op, env.Hostname(), obs.Str("err", err.Error()))
	}
	return stats, err
}

// attempt runs one try against the server: the control request and reply,
// then one data channel per stream, each dialled, named by the [id][idx]
// handshake and aborted by the watchdog should the whole attempt stall.
// An interrupted attempt leaves the restart ledger holding whatever landed.
func (c *Client) attempt(env transport.Env, hostport, path, op string, l leg) (int64, bool, error) {
	ctrl, err := c.Dialer.Dial(env, hostport)
	if err != nil {
		return 0, true, fmt.Errorf("gridftp: dial %s: %w", hostport, err)
	}
	defer ctrl.Close(env)
	st := transport.Stream{Env: env, Conn: ctrl}
	streams := c.streams()
	req := nexus.NewBuffer()
	l.request(req, path, streams)
	resp, err := nexus.Call(st, req)
	if err != nil {
		return 0, true, replyErr(err)
	}
	id, dataAddr, verdict, err := l.reply(resp)
	if err != nil {
		return 0, true, err
	}

	w := c.armWatchdog(env)
	defer w.disarm()
	if verdict {
		w.track(ctrl) // a stalled verdict read must also trip the watchdog
	}
	done := transport.NewQueue[error](env)
	for i := 0; i < streams; i++ {
		idx := i
		env.Spawn("gridftp:"+op+"-chan", func(e transport.Env) {
			done.Put(e, func() error {
				conn, err := c.Dialer.Dial(e, dataAddr)
				if err != nil {
					return err
				}
				defer conn.Close(e)
				w.track(conn)
				st := transport.Stream{Env: e, Conn: conn}
				hs := nexus.NewBuffer()
				hs.PutString(id)
				hs.PutInt32(int32(idx))
				if err := nexus.WriteFrame(st, hs); err != nil {
					return err
				}
				return l.channel(st, idx, streams, &w.progress)
			}())
		})
	}
	var chanErr error
	for i := 0; i < streams; i++ {
		if err, _ := done.Get(env); err != nil && chanErr == nil {
			chanErr = err
		}
	}
	return l.end(st, chanErr)
}

// download is the receiving leg: RETR with the restart ledger, and the
// server's blocks land in the sink, which outlives the attempts.
type download struct{ s *sink }

func (d download) request(req *nexus.Buffer, path string, streams int) {
	req.PutInt32(opRetr)
	req.PutString(path)
	d.s.mu.Lock()
	req.PutBytes(d.s.ledger.Encode())
	d.s.mu.Unlock()
	req.PutInt32(int32(streams))
}

func (d download) reply(resp *nexus.Buffer) (string, string, bool, error) {
	size, e1 := resp.GetInt64()
	id, e2 := resp.GetString()
	dataAddr, e3 := resp.GetString()
	if e1 != nil || e2 != nil || e3 != nil || size < 0 || size > gass.MaxFileSize {
		return "", "", false, fmt.Errorf("gridftp: malformed RETR reply")
	}
	d.s.setSize(size)
	return id, dataAddr, false, nil
}

func (d download) channel(st transport.Stream, _, _ int, progress *atomic.Int64) error {
	return d.s.receive(st, progress)
}

func (d download) end(_ transport.Stream, chanErr error) (int64, bool, error) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	switch {
	case d.s.err != nil:
		return 0, false, d.s.err // the destination failed, not the network
	case d.s.ledger.Complete(d.s.size):
		return d.s.size, false, nil
	case chanErr != nil:
		return 0, true, chanErr
	}
	return 0, true, errIncomplete
}

// upload is the sending leg: STOR under the call's upload ID, and the
// client sends the blocks the server's restart ledger lacks.
type upload struct {
	id     string // names the server's partial, one per Put call
	data   []byte
	blocks []Range // what the server lacked at this attempt's reply
}

func (u *upload) request(req *nexus.Buffer, path string, streams int) {
	req.PutInt32(opStor)
	req.PutString(path)
	req.PutInt64(int64(len(u.data)))
	req.PutInt32(int32(streams))
	req.PutString(u.id)
}

func (u *upload) reply(resp *nexus.Buffer) (string, string, bool, error) {
	id, e1 := resp.GetString()
	dataAddr, e2 := resp.GetString()
	ledgerBytes, e3 := resp.GetBytes()
	if e1 != nil || e2 != nil || e3 != nil {
		return "", "", false, fmt.Errorf("gridftp: malformed STOR reply")
	}
	serverHas, err := DecodeLedger(ledgerBytes)
	if err != nil {
		return "", "", false, err
	}
	u.blocks = chopRanges(serverHas.Missing(int64(len(u.data))), DefaultBlockSize)
	return id, dataAddr, true, nil
}

func (u *upload) channel(st transport.Stream, idx, streams int, progress *atomic.Int64) error {
	return send(st, u.data, u.blocks, idx, streams, progress)
}

// end reads the verdict: a refusal is the server's word; a broken control
// channel is better explained by a failed data channel, if one failed.
func (u *upload) end(ctrl transport.Stream, chanErr error) (int64, bool, error) {
	if _, err := nexus.ReadReply(ctrl); err != nil {
		var se *nexus.StatusError
		if chanErr != nil && !errors.As(err, &se) {
			return 0, true, chanErr
		}
		return 0, true, replyErr(err)
	}
	return int64(len(u.data)), false, nil
}

// replyErr restates a control server's refusal in gridftp's words; other
// errors pass through.
func replyErr(err error) error {
	var se *nexus.StatusError
	if !errors.As(err, &se) {
		return err
	}
	if se.Malformed {
		return fmt.Errorf("gridftp: malformed error reply")
	}
	return fmt.Errorf("gridftp: server: %w", se)
}

// watchdog aborts an attempt's connections after ProgressTimeout without
// any byte progress — the recovery trigger for transfers stalled by a WAN
// outage (simnet links stall rather than drop, so without the watchdog a
// dead attempt would wait out the whole outage instead of resuming).
type watchdog struct {
	progress atomic.Int64 // bytes the attempt's channels have moved
	mu       sync.Mutex
	conns    []transport.Conn
	stopped  bool
}

// armWatchdog starts the watchdog process if ProgressTimeout is set;
// otherwise returns an inert watchdog.
func (c *Client) armWatchdog(env transport.Env) *watchdog {
	w := &watchdog{}
	if c.ProgressTimeout <= 0 {
		return w
	}
	env.Spawn("gridftp:watchdog", func(e transport.Env) {
		last := w.progress.Load()
		for {
			e.Sleep(c.ProgressTimeout)
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
	w.mu.Lock()
	w.conns = append(w.conns, c)
	w.mu.Unlock()
}

// disarm stops the watchdog.
func (w *watchdog) disarm() {
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
