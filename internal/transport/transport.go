// Package transport defines the execution-and-network abstraction every
// layer of the system is written against, so that the identical protocol
// code (Nexus Proxy relay, Nexus, GRAM, RMF, MPI) runs in two environments:
//
//   - real TCP on the local machine (cmd/nxproxy-*, examples/quickstart), and
//   - the deterministic virtual network in internal/simnet, where the
//     wide-area cluster experiments execute in virtual time.
//
// An Env is the view one logical process has of its world: its host's name
// and clock, the ability to sleep, consume CPU, spawn sibling processes on
// the same host, and open/accept network connections. This corresponds to
// what a Unix process on one of the paper's testbed machines could do.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrRefused is returned by Dial when the destination host has no listener
// on the target port.
var ErrRefused = errors.New("transport: connection refused")

// ErrFirewallDenied is returned by Dial when a firewall on the path rejects
// the connection attempt.
var ErrFirewallDenied = errors.New("transport: connection denied by firewall")

// ErrClosed is returned by operations on a closed listener or connection.
var ErrClosed = errors.New("transport: closed")

// ErrNoRoute is returned by Dial when the destination host is unknown or
// unreachable.
var ErrNoRoute = errors.New("transport: no route to host")

// ErrReset is returned by Read/Write when the connection was torn down
// abruptly — the peer aborted it, the peer's host crashed, or a relay on the
// path surfaced a mid-stream transport failure. Unlike io.EOF it means "the
// stream broke", never "the stream finished".
var ErrReset = errors.New("transport: connection reset by peer")

// ErrHostDown is returned by Dial when the destination host is known but
// currently crashed (fault injection). Callers that implement recovery treat
// it like ErrRefused: back off and retry until the host restarts.
var ErrHostDown = errors.New("transport: host is down")

// Env is the execution environment of one logical process.
//
// Every blocking primitive goes through the Env so that the simulated
// implementation can park the caller in virtual time. Implementations are
// not safe for concurrent use by multiple goroutines; each spawned process
// receives its own Env.
type Env interface {
	// Hostname returns the name of the host this process runs on.
	Hostname() string
	// Now returns the environment's clock (virtual or wall, monotonic).
	Now() time.Duration
	// Sleep blocks the process for d.
	Sleep(d time.Duration)
	// Compute consumes d of CPU time on this host at nominal speed; on a
	// host with speed factor s it takes d/s, and it contends for the host's
	// processors.
	Compute(d time.Duration)
	// Spawn starts a new process on the same host running fn.
	Spawn(name string, fn func(Env))
	// SpawnService is Spawn for processes that provide a service
	// indefinitely (accept loops, relay pumps, message readers). The
	// simulated environment excludes such processes from run-completion
	// accounting so a simulation ends when application work does.
	SpawnService(name string, fn func(Env))
	// Dial opens a stream connection to addr ("host:port").
	Dial(addr string) (Conn, error)
	// Listen binds a listener on the given local port; port 0 picks an
	// ephemeral port.
	Listen(port int) (Listener, error)
	// NewMutex creates a lock usable by processes of this environment.
	NewMutex() Mutex
	// NewQueue creates an unbounded FIFO usable by processes of this
	// environment; see Queue for the typed wrapper.
	NewQueue() AnyQueue
}

// Conn is a reliable byte stream. The Env parameter identifies the calling
// process so simulated implementations can block it; callers pass their own
// Env, never another process's.
type Conn interface {
	// Read fills b with available bytes, blocking until at least one byte
	// or end of stream (io.EOF).
	Read(env Env, b []byte) (int, error)
	// Write sends b, blocking until accepted by the local send buffer.
	Write(env Env, b []byte) (int, error)
	// Close shuts the connection down in both directions.
	Close(env Env) error
	// LocalAddr returns "host:port" of the local endpoint.
	LocalAddr() string
	// RemoteAddr returns "host:port" of the remote endpoint.
	RemoteAddr() string
}

// Aborter is implemented by connections that can be torn down abruptly
// (TCP RST rather than FIN). After Abort, the peer's pending and future
// Read/Write calls fail with ErrReset instead of observing a clean EOF.
// Relays use it to propagate a mid-stream failure on one leg to the other.
type Aborter interface {
	Abort(env Env) error
}

// Abort tears c down abruptly when it supports aborting, and falls back to
// an orderly Close when it does not.
func Abort(env Env, c Conn) error {
	if a, ok := c.(Aborter); ok {
		return a.Abort(env)
	}
	return c.Close(env)
}

// Listener accepts inbound connections on a bound port.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes.
	Accept(env Env) (Conn, error)
	// Close unbinds the port; blocked Accepts return ErrClosed.
	Close(env Env) error
	// Addr returns the bound "host:port".
	Addr() string
}

// RandOf extracts the deterministic random stream carried by env — the
// simulation kernel's seeded generator, exposed by simnet environments via a
// `Rand() uint64` method. It returns nil when env carries none (real-TCP
// deployments), in which case consumers like Backoff fall back to their
// hash-based jitter. Wire it at retry-loop setup:
//
//	bo := cfg.Backoff
//	if bo.Rand == nil {
//		bo.Rand = transport.RandOf(env)
//	}
func RandOf(env Env) func() uint64 {
	if r, ok := env.(interface{ Rand() uint64 }); ok {
		return r.Rand
	}
	return nil
}

// SplitAddr parses "host:port".
func SplitAddr(addr string) (host string, port int, err error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("transport: address %q missing port", addr)
	}
	port, err = strconv.Atoi(addr[i+1:])
	if err != nil || port < 0 || port > 65535 {
		return "", 0, fmt.Errorf("transport: address %q has invalid port", addr)
	}
	return addr[:i], port, nil
}

// JoinAddr formats "host:port".
func JoinAddr(host string, port int) string {
	return host + ":" + strconv.Itoa(port)
}

// connReader adapts a Conn to io.Reader for one calling Env.
type connReader struct {
	env  Env
	conn Conn
}

func (r connReader) Read(b []byte) (int, error) { return r.conn.Read(r.env, b) }

// connWriter adapts a Conn to io.Writer for one calling Env.
type connWriter struct {
	env  Env
	conn Conn
}

func (w connWriter) Write(b []byte) (int, error) { return w.conn.Write(w.env, b) }

// Stream bundles a Conn with a calling Env into an io.ReadWriter so the wire
// protocols can use encoding/binary, io.ReadFull, io.Copy, bufio, etc.
type Stream struct {
	Env  Env
	Conn Conn
}

// Read implements io.Reader.
func (s Stream) Read(b []byte) (int, error) { return s.Conn.Read(s.Env, b) }

// Write implements io.Writer.
func (s Stream) Write(b []byte) (int, error) { return s.Conn.Write(s.Env, b) }

// Close implements io.Closer.
func (s Stream) Close() error { return s.Conn.Close(s.Env) }
