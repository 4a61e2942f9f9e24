// Package gass implements Global Access to Secondary Storage: the file
// service Globus jobs use for input/output. The paper's RMF relies on it —
// "since the Globus GASS facility uses files for input/output, the Q system
// also transfers the files to remote resources".
//
// A Server exposes a Store (an in-memory file system; the simulated
// equivalent of a spool directory) at x-gass://host:port/path URLs. The
// Client fetches and publishes files, with an optional local cache keyed by
// URL, mirroring the GASS file cache.
package gass

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// Scheme prefixes GASS URLs.
const Scheme = "x-gass://"

// ErrNotFound is returned for absent paths.
var ErrNotFound = errors.New("gass: file not found")

// ErrTooLarge is returned when a file exceeds MaxFileSize — on the server
// store path as well as at transfer time, so an oversize file can never
// enter a store through any route.
var ErrTooLarge = errors.New("gass: file too large")

// MaxFileSize bounds a single file and a single transfer.
const MaxFileSize = 64 << 20

// Store is an in-memory file system. Stored contents are immutable: a write
// replaces a file's slice and never modifies it in place, so a slice handed
// out by View stays valid, with the contents it had, after later writes.
type Store struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{files: make(map[string][]byte)} }

func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return p
}

// Put writes a copy of data. Files beyond MaxFileSize are rejected with
// ErrTooLarge.
func (s *Store) Put(path string, data []byte) error {
	if len(data) > MaxFileSize {
		return tooLarge(path, data)
	}
	return s.Adopt(path, append([]byte(nil), data...))
}

// Adopt writes a file without copying: the store takes ownership of data,
// and nobody may modify it afterwards. It is for a caller whose buffer dies
// at the call, or is read-only from then on — such a buffer may be adopted
// by several stores, which only ever read it; everyone else uses Put. Files
// beyond MaxFileSize are rejected with ErrTooLarge.
func (s *Store) Adopt(path string, data []byte) error {
	if len(data) > MaxFileSize {
		return tooLarge(path, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[cleanPath(path)] = data
	return nil
}

func tooLarge(path string, data []byte) error {
	return fmt.Errorf("%w: %s (%d bytes)", ErrTooLarge, cleanPath(path), len(data))
}

// View reads a file without copying. The returned slice is the store's own
// and is read-only: callers must not write through it. Its capacity is
// clipped to its length, so appending to it cannot reach the store.
func (s *Store) View(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[cleanPath(path)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return data[:len(data):len(data)], nil
}

// Get reads a copy of a file, which the caller owns.
func (s *Store) Get(path string) ([]byte, error) {
	data, err := s.View(path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// Delete removes a file.
func (s *Store) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := cleanPath(path)
	if _, ok := s.files[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(s.files, p)
	return nil
}

// List returns the stored paths under a prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix = cleanPath(prefix)
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ParseURL splits an x-gass URL into transport address and path.
func ParseURL(url string) (hostport, path string, err error) {
	if !strings.HasPrefix(url, Scheme) {
		return "", "", fmt.Errorf("gass: URL %q: missing %s scheme", url, Scheme)
	}
	rest := url[len(Scheme):]
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return "", "", fmt.Errorf("gass: URL %q: missing path", url)
	}
	return rest[:i], rest[i:], nil
}

// URL builds an x-gass URL.
func URL(hostport, path string) string {
	return Scheme + hostport + cleanPath(path)
}

// Wire ops.
const (
	opGet = byte(1)
	opPut = byte(2)
)

// Server serves a Store over the transport.
type Server struct {
	Store    *Store
	listener transport.Listener
}

// NewServer wraps a store.
func NewServer(store *Store) *Server { return &Server{Store: store} }

// Addr returns the bound address once serving.
func (s *Server) Addr() string { return s.listener.Addr() }

// Serve binds and accepts; it blocks its process.
func (s *Server) Serve(env transport.Env, port int, ready func(addr string)) error {
	l, err := env.Listen(port)
	if err != nil {
		return fmt.Errorf("gass: listen: %w", err)
	}
	s.listener = l
	if ready != nil {
		ready(l.Addr())
	}
	for {
		c, err := l.Accept(env)
		if err != nil {
			return nil
		}
		conn := c
		env.SpawnService("gass:conn", func(e transport.Env) { s.handle(e, conn) })
	}
}

// Close shuts the listener down.
func (s *Server) Close(env transport.Env) {
	if s.listener != nil {
		_ = s.listener.Close(env)
	}
}

// handle serves one request: [op:1][pathLen:2][path]([dataLen:4][data])
// with response [status:1]([dataLen:4][data] | [msgLen:2][msg]).
func (s *Server) handle(env transport.Env, c transport.Conn) {
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	var hdr [3]byte
	if _, err := io.ReadFull(st, hdr[:]); err != nil {
		return
	}
	op := hdr[0]
	pathLen := int(binary.BigEndian.Uint16(hdr[1:3]))
	pathBuf := make([]byte, pathLen)
	if _, err := io.ReadFull(st, pathBuf); err != nil {
		return
	}
	path := string(pathBuf)
	switch op {
	case opGet:
		data, err := s.Store.View(path)
		if err != nil {
			writeErr(st, err)
			return
		}
		var sz [5]byte
		sz[0] = 0 // OK
		binary.BigEndian.PutUint32(sz[1:], uint32(len(data)))
		if _, err := st.Write(sz[:]); err != nil {
			return
		}
		_, _ = st.Write(data)
	case opPut:
		var sz [4]byte
		if _, err := io.ReadFull(st, sz[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(sz[:])
		if n > MaxFileSize {
			writeErr(st, fmt.Errorf("%w (%d bytes)", ErrTooLarge, n))
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(st, data); err != nil {
			return
		}
		// data was read off the wire into a fresh buffer and is not used
		// again: the store takes it as is.
		if err := s.Store.Adopt(path, data); err != nil {
			writeErr(st, err)
			return
		}
		_, _ = st.Write([]byte{0})
	default:
		writeErr(st, fmt.Errorf("gass: unknown op %d", op))
	}
}

func writeErr(st transport.Stream, err error) {
	msg := err.Error()
	if len(msg) > 65535 {
		msg = msg[:65535]
	}
	buf := make([]byte, 3+len(msg))
	buf[0] = 1
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(msg)))
	copy(buf[3:], msg)
	_, _ = st.Write(buf)
}

// DefaultCacheBytes is the client cache's default byte cap.
const DefaultCacheBytes = 16 << 20

// cacheEntry is one cached file on the client's LRU list (most recently
// used at the front).
type cacheEntry struct {
	url        string
	data       []byte
	prev, next *cacheEntry
}

// Client fetches and publishes GASS files through a byte-capped LRU cache,
// mirroring the GASS file cache. Repeated staging of the same inputs hits
// the cache; the cap keeps a long-lived client (e.g. a Q server staging
// many jobs) from growing without bound.
type Client struct {
	mu       sync.Mutex
	capBytes int
	size     int
	entries  map[string]*cacheEntry
	head     *cacheEntry // most recently used
	tail     *cacheEntry // least recently used, evicted first
}

// NewClient creates a client with the default cache cap.
func NewClient() *Client { return NewClientCap(DefaultCacheBytes) }

// NewClientCap creates a client whose cache holds at most capBytes of file
// data; capBytes <= 0 disables caching entirely.
func NewClientCap(capBytes int) *Client {
	return &Client{capBytes: capBytes, entries: make(map[string]*cacheEntry)}
}

// unlink removes e from the LRU list.
func (c *Client) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *Client) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get fetches url, serving repeated fetches from the cache.
func (c *Client) Get(env transport.Env, url string) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[url]; ok {
		c.unlink(e)
		c.pushFront(e)
		data := append([]byte(nil), e.data...)
		c.mu.Unlock()
		return data, nil
	}
	c.mu.Unlock()
	data, err := Fetch(env, url)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.insert(url, data)
	c.mu.Unlock()
	return append([]byte(nil), data...), nil
}

// insert caches data under url (mu held): files over the cap are not
// cached at all; otherwise least-recently-used entries are evicted until
// the new entry fits.
func (c *Client) insert(url string, data []byte) {
	if len(data) > c.capBytes {
		return
	}
	if e, ok := c.entries[url]; ok {
		c.size -= len(e.data)
		c.unlink(e)
		delete(c.entries, url)
	}
	for c.size+len(data) > c.capBytes && c.tail != nil {
		lru := c.tail
		c.size -= len(lru.data)
		c.unlink(lru)
		delete(c.entries, lru.url)
	}
	e := &cacheEntry{url: url, data: data}
	c.entries[url] = e
	c.pushFront(e)
	c.size += len(data)
}

// Invalidate drops a cached URL.
func (c *Client) Invalidate(url string) {
	c.mu.Lock()
	if e, ok := c.entries[url]; ok {
		c.size -= len(e.data)
		c.unlink(e)
		delete(c.entries, url)
	}
	c.mu.Unlock()
}

// CacheSize reports cached entry count.
func (c *Client) CacheSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheBytes reports the cached data volume.
func (c *Client) CacheBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Fetch retrieves a URL without caching.
func Fetch(env transport.Env, url string) ([]byte, error) {
	hostport, path, err := ParseURL(url)
	if err != nil {
		return nil, err
	}
	o := obs.From(env)
	span := o.BeginChild(env.Now(), obs.CtxOf(env), "gass", "fetch", env.Hostname(), obs.Str("url", url))
	conn, err := env.Dial(hostport)
	if err != nil {
		o.EndSpan(env.Now(), span, "gass", "fetch", env.Hostname(), obs.Str("err", "dial"))
		return nil, fmt.Errorf("gass: dial %s: %w", hostport, err)
	}
	defer conn.Close(env)
	st := transport.Stream{Env: env, Conn: conn}
	if err := writeReq(st, opGet, path); err != nil {
		o.EndSpan(env.Now(), span, "gass", "fetch", env.Hostname(), obs.Str("err", "request"))
		return nil, err
	}
	data, err := readResp(st)
	if err != nil {
		o.EndSpan(env.Now(), span, "gass", "fetch", env.Hostname(), obs.Str("err", err.Error()))
		return nil, err
	}
	o.EndSpan(env.Now(), span, "gass", "fetch", env.Hostname(), obs.Int("bytes", int64(len(data))))
	return data, nil
}

// Publish stores data at a URL.
func Publish(env transport.Env, url string, data []byte) error {
	hostport, path, err := ParseURL(url)
	if err != nil {
		return err
	}
	// Reject oversize payloads before dialing: the server would refuse the
	// size header anyway, and shipping the body first just wastes the link.
	if len(data) > MaxFileSize {
		return fmt.Errorf("%w: put %s (%d bytes)", ErrTooLarge, url, len(data))
	}
	o := obs.From(env)
	span := o.BeginChild(env.Now(), obs.CtxOf(env), "gass", "publish", env.Hostname(),
		obs.Str("url", url), obs.Int("bytes", int64(len(data))))
	err = publish(env, hostport, path, url, data)
	if err != nil {
		o.EndSpan(env.Now(), span, "gass", "publish", env.Hostname(), obs.Str("err", err.Error()))
		return err
	}
	o.EndSpan(env.Now(), span, "gass", "publish", env.Hostname())
	return nil
}

// publish is Publish's transfer body, split out so the caller can wrap one
// success and one failure span-end around every exit.
func publish(env transport.Env, hostport, path, url string, data []byte) error {
	conn, err := env.Dial(hostport)
	if err != nil {
		return fmt.Errorf("gass: dial %s: %w", hostport, err)
	}
	defer conn.Close(env)
	st := transport.Stream{Env: env, Conn: conn}
	if err := writeReq(st, opPut, path); err != nil {
		return err
	}
	var sz [4]byte
	binary.BigEndian.PutUint32(sz[:], uint32(len(data)))
	if _, err := st.Write(sz[:]); err != nil {
		return err
	}
	if _, err := st.Write(data); err != nil {
		return err
	}
	status := make([]byte, 1)
	if _, err := io.ReadFull(st, status); err != nil {
		return err
	}
	if status[0] != 0 {
		msg, _ := readErrMsg(st)
		if strings.Contains(msg, "too large") {
			return fmt.Errorf("%w: put %s: %s", ErrTooLarge, url, msg)
		}
		return fmt.Errorf("gass: put %s: %s", url, msg)
	}
	return nil
}

func writeReq(st transport.Stream, op byte, path string) error {
	buf := make([]byte, 3+len(path))
	buf[0] = op
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(path)))
	copy(buf[3:], path)
	_, err := st.Write(buf)
	return err
}

func readResp(st transport.Stream) ([]byte, error) {
	status := make([]byte, 1)
	if _, err := io.ReadFull(st, status); err != nil {
		return nil, err
	}
	if status[0] != 0 {
		msg, _ := readErrMsg(st)
		if strings.Contains(msg, "not found") {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, msg)
		}
		if strings.Contains(msg, "too large") {
			return nil, fmt.Errorf("%w: %s", ErrTooLarge, msg)
		}
		return nil, errors.New("gass: " + msg)
	}
	var sz [4]byte
	if _, err := io.ReadFull(st, sz[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(sz[:])
	if n > MaxFileSize {
		return nil, fmt.Errorf("gass: oversized response (%d)", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(st, data); err != nil {
		return nil, err
	}
	return data, nil
}

func readErrMsg(st transport.Stream) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(st, l[:]); err != nil {
		return "", err
	}
	msg := make([]byte, binary.BigEndian.Uint16(l[:]))
	if _, err := io.ReadFull(st, msg); err != nil {
		return "", err
	}
	return string(msg), nil
}
