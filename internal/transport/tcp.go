package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// TCPEnv is the real-network implementation of Env: processes are goroutines,
// the clock is the wall clock, and connections are loopback/OS TCP sockets.
// It is what cmd/nxproxy-outer, cmd/nxproxy-inner and the quickstart example
// run on.
type TCPEnv struct {
	host  string
	bind  string // interface to bind listeners on, default 127.0.0.1
	start time.Time
	// DialGuard, when non-nil, is consulted before every Dial; it lets
	// tests interpose a firewall rule set in front of real sockets.
	DialGuard func(addr string) error
	// sessions is this environment's idle-session table; Spawn's copies
	// share it.
	sessions *Sessions
}

// NewTCPEnv creates a real-TCP environment. host is the name Dial targets
// resolve against for the loopback interface; listeners bind 127.0.0.1.
func NewTCPEnv(host string) *TCPEnv {
	return &TCPEnv{host: host, bind: "127.0.0.1", start: time.Now(), sessions: &Sessions{}}
}

// Sessions returns the idle-session table this environment and its Spawn
// copies share (see SessionsOf).
func (e *TCPEnv) Sessions() *Sessions { return e.sessions }

// Hostname implements Env.
func (e *TCPEnv) Hostname() string { return e.host }

// Now implements Env with a wall-clock monotonic reading.
func (e *TCPEnv) Now() time.Duration { return time.Since(e.start) }

// Sleep implements Env.
func (e *TCPEnv) Sleep(d time.Duration) { time.Sleep(d) }

// Compute implements Env; on the real machine CPU consumption is modeled as
// elapsed time.
func (e *TCPEnv) Compute(d time.Duration) { time.Sleep(d) }

// Spawn implements Env by starting a goroutine sharing this environment.
func (e *TCPEnv) Spawn(name string, fn func(Env)) {
	child := *e
	go fn(&child)
}

// SpawnService implements Env; on the real network it is identical to Spawn.
func (e *TCPEnv) SpawnService(name string, fn func(Env)) { e.Spawn(name, fn) }

// Dial implements Env. Host names other than this environment's own are
// resolved to loopback, so a multi-"host" topology can run in one process.
func (e *TCPEnv) Dial(addr string) (Conn, error) {
	if e.DialGuard != nil {
		if err := e.DialGuard(addr); err != nil {
			return nil, err
		}
	}
	_, port, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", JoinAddr(e.bind, port), 5*time.Second)
	if err != nil {
		if errors.Is(err, syscall.ECONNREFUSED) {
			return nil, ErrRefused
		}
		return nil, err
	}
	return &tcpConn{c: c, local: JoinAddr(e.host, localPort(c)), remote: addr}, nil
}

// Listen implements Env.
func (e *TCPEnv) Listen(port int) (Listener, error) {
	l, err := net.Listen("tcp", JoinAddr(e.bind, port))
	if err != nil {
		return nil, err
	}
	boundPort := l.Addr().(*net.TCPAddr).Port
	return &tcpListener{l: l, host: e.host, addr: JoinAddr(e.host, boundPort)}, nil
}

func localPort(c net.Conn) int {
	if a, ok := c.LocalAddr().(*net.TCPAddr); ok {
		return a.Port
	}
	return 0
}

type tcpListener struct {
	l    net.Listener
	host string
	addr string
}

func (t *tcpListener) Accept(env Env) (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	remote := c.RemoteAddr().String()
	return &tcpConn{c: c, local: t.addr, remote: remote}, nil
}

func (t *tcpListener) Close(env Env) error { return t.l.Close() }

func (t *tcpListener) Addr() string { return t.addr }

type tcpConn struct {
	c      net.Conn
	local  string
	remote string
}

func (t *tcpConn) Read(env Env, b []byte) (int, error) {
	n, err := t.c.Read(b)
	if err != nil && !errors.Is(err, io.EOF) {
		if isResetErr(err) {
			return n, ErrReset
		}
		if isClosedErr(err) {
			return n, io.EOF
		}
	}
	return n, err
}

func (t *tcpConn) Write(env Env, b []byte) (int, error) {
	n, err := t.c.Write(b)
	if err != nil {
		if isResetErr(err) {
			return n, ErrReset
		}
		if isClosedErr(err) {
			return n, ErrClosed
		}
	}
	return n, err
}

func (t *tcpConn) Close(env Env) error { return t.c.Close() }

// Abort implements Aborter: linger zero makes Close emit an RST, so the
// peer's reads fail with ErrReset instead of reading a clean EOF.
func (t *tcpConn) Abort(env Env) error {
	if tc, ok := t.c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	return t.c.Close()
}

// spliceChunk is how much of a handed-off relay direction one ReadFrom call
// moves before Relay's Fwd hook is told.
const spliceChunk = 1 << 20

// tcpSocket returns the socket under c when c is a TCPEnv connection on
// Linux, and nil otherwise. Elsewhere (*net.TCPConn).ReadFrom is Go's
// generic copy, which would gain nothing over Relay's loop and allocate a
// buffer per call.
func tcpSocket(c Conn) *net.TCPConn {
	t, _ := c.(*tcpConn)
	if t == nil || runtime.GOOS != "linux" {
		return nil
	}
	s, _ := t.c.(*net.TCPConn)
	return s
}

// spliceRest moves the rest of src to dst with (*net.TCPConn).ReadFrom,
// which Go implements with splice(2) on Linux, telling fwd each call's count.
// Each call holds a pipe from Go's pool, two descriptors, until it has moved
// spliceChunk bytes or the stream ends. It maps errors as tcpConn.Read and
// Write do: a reset is ErrReset, while a closed socket, or a call that ends
// short of its limit, is the end of the stream (nil).
func spliceRest(src, dst *net.TCPConn, fwd func(n int)) error {
	lr := &io.LimitedReader{R: src}
	for {
		lr.N = spliceChunk
		n, err := dst.ReadFrom(lr)
		if n > 0 && fwd != nil {
			fwd(int(n))
		}
		switch {
		case err == nil && lr.N == 0:
			continue
		case err == nil:
			return nil
		case isResetErr(err):
			return ErrReset
		case isClosedErr(err):
			return nil
		default:
			return err
		}
	}
}

func (t *tcpConn) LocalAddr() string { return t.local }

func (t *tcpConn) RemoteAddr() string { return t.remote }

// joinMax is the largest head plus body WriteHead copies into one write.
// Past it the copy is no longer small beside the system call it saves.
const joinMax = 64 << 10

// joinPool holds WriteHead's frame buffers, each grown to the largest frame
// it has carried, up to joinMax.
var joinPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// WriteHead writes a message head (a length prefix, a status byte) and then
// its body to w. On a Stream over a TCPEnv socket every write is a system
// call and, with Nagle's algorithm off, a segment of its own, so head and
// body go out as one write through a pooled buffer when together they fit
// in joinMax bytes. Anywhere else, a simnet stream in particular, whose
// segments are events of the model, they are two writes, as the protocols
// have always issued them.
func WriteHead(w io.Writer, head, body []byte) error {
	bp := joinPool.Get().(*[]byte)
	defer joinPool.Put(bp)
	join := false
	if s, ok := w.(Stream); ok && len(head)+len(body) <= joinMax {
		_, join = s.Conn.(*tcpConn)
	}
	frame := append((*bp)[:0], head...)
	if join {
		frame = append(frame, body...)
	}
	*bp = frame
	if _, err := w.Write(frame); err != nil || join {
		return err
	}
	_, err := w.Write(body)
	return err
}

// isResetErr detects an abrupt peer teardown (RST / broken pipe), which
// upper layers must see as ErrReset, never as an orderly EOF.
func isResetErr(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// isClosedErr folds the various "use of closed connection" flavors the OS
// can return into one category, so upper layers see io.EOF/ErrClosed.
func isClosedErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || isResetErr(err) {
		return true
	}
	return strings.Contains(err.Error(), "use of closed network connection")
}
