package wirefuzz

import (
	"bytes"
	"io"
	"strconv"
	"testing"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/gass"
	"nxcluster/internal/gram"
	"nxcluster/internal/hbm"
	"nxcluster/internal/mds"
	"nxcluster/internal/nexus"
	"nxcluster/internal/rmf"
	"nxcluster/internal/transport"
)

// FuzzAuthAccept feeds the gatekeeper's half of the handshake an arbitrary
// hello and proof: each framed as a client sends it, or (raw) the two bodies
// back to back as the stream itself, so the length prefixes are the
// fuzzer's too. Accept must never panic, never authenticate (the server's
// nonce is fresh, so no fixed proof can match it), and stay within
// allocBound: nexus.ReadFrame allocates at most 64 KiB of a frame before its
// bytes arrive, and grows by doubling as they do.
func FuzzAuthAccept(f *testing.F) {
	const subject = "/O=Grid/CN=fuzz"
	nonce := make([]byte, 32)
	f.Add(body(subject, nonce), make([]byte, 36), false)
	f.Add(body("/O=Grid/CN=stranger", nonce), []byte{}, false)
	f.Add(body(subject, []byte(nil)), []byte{0, 0, 0, 0}, false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{}, false)
	f.Add([]byte{0, 0x10, 0, 0}, []byte{}, true)
	f.Add([]byte{0, 0x80, 0, 0}, []byte{}, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{}, true)
	kr := auth.NewKeyring()
	kr.Grant(auth.Credential{Subject: subject, Key: []byte("fuzz key")}, "fuzz")
	f.Fuzz(func(t *testing.T, hello, proof []byte, raw bool) {
		in := frame(hello, proof)
		if raw {
			in = append(append([]byte(nil), hello...), proof...)
		}
		var who string
		var err error
		out := 0
		grew := leastAlloc(func(measure func(func())) {
			env := newPipeEnv()
			measure(func() {
				srv, cli := newPipe()
				drained := make(chan int64, 1)
				go func() {
					n, _ := io.Copy(io.Discard, cli.c)
					drained <- n
				}()
				wrote := make(chan struct{})
				go func() {
					defer close(wrote)
					_, _ = cli.c.Write(in) // fails once Accept returns
					_ = cli.Close(env)
				}()
				who, err = auth.Accept(env, srv, kr)
				_ = srv.Close(env)
				<-wrote
				out = int(<-drained)
			})
		})
		if err == nil {
			t.Fatalf("Accept authenticated %q from a fixed proof", who)
		}
		if bound := allocBound(len(in), out); grew > bound {
			t.Fatalf("a %d-byte handshake made Accept allocate %d bytes, over its bound of %d", len(in), grew, bound)
		}
	})
}

// FuzzGatekeeperSession authenticates a session, then writes an arbitrary
// byte stream on it as request frames: well-formed ops, unknown ops, cut
// strings, oversized and bare headers. The gatekeeper answers each frame,
// and ends the session after one that does not decode (an op, and the
// string a Submit or Status carries).
func FuzzGatekeeperSession(f *testing.F) {
	f.Add(frame(body(gramSubmit, "&(executable=x)"), body(gramStatus, "job-1"), body(gramList)))
	f.Add(frame(body(gramSubmit, "&(executable=x)(count=2)(jobmanager=rmf)"), body(99)))
	f.Add(frame(body(gramList), body(gramStatus)))
	f.Add(append(request(gramStatus, "job-1"), 0, 0, 0, 6, 0, 0, 0, 1, 0, 0))
	f.Add(append(request(gramList), 0, 0, 0, 0))
	f.Add([]byte{0, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 4})
	cred := auth.Credential{Subject: "/O=Grid/CN=fuzz", Key: []byte("fuzz key")}
	kr := auth.NewKeyring()
	kr.Grant(cred, "fuzz")
	gatekeeper := daemon{
		wire: frames(func(b []byte) bool {
			req := nexus.FromBytes(b)
			op, err := req.GetInt32()
			if err == nil && (op == gramSubmit || op == gramStatus) {
				_, err = req.GetString()
			}
			return err == nil
		}),
		start: func() func(transport.Env) error {
			gk := gram.NewGatekeeper(gram.Config{Keyring: kr, Registry: rmf.NewRegistry()})
			return func(env transport.Env) error { return gk.Serve(env, 0, nil) }
		},
		hello: func(env transport.Env, c transport.Conn) error { return auth.Initiate(env, c, cred) },
		probe: request(gramStatus, "job-1"),
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzSession(t, gatekeeper, stream) })
}

func FuzzAllocatorRequest(f *testing.F) {
	f.Add(request(rmfRegister, "node9", "node9:7101", "compas", 4))
	f.Add(request(rmfRegister, "node0", "elsewhere:7101", "etl", 1)) // moves a known one
	f.Add(request(rmfRegister, "node9", "node9:7101", "compas", 0))
	f.Add(request(rmfAlloc, 2, ""))
	f.Add(request(rmfAlloc, 3, "compas"))
	f.Add(request(rmfAlloc, 1, "nowhere"))
	f.Add(request(rmfAlloc, 1<<30, ""))
	f.Add(request(rmfAlloc, -1, ""))
	f.Add(request(rmfRelease, 2, "node0", "ghost"))
	f.Add(request(rmfRelease, 1<<30))
	f.Add(request(rmfRelease, -1))
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(frame(body(rmfAlloc, 2, ""), body(rmfRelease, 2, "node0", "node1"), body(rmfAlloc, 1, "rwcp")))
	f.Add(frame(body(rmfRelease, 1<<30), body(99), nil, body(rmfAlloc, 1, "")))
	f.Add(append(request(rmfAlloc, 1, ""), 0x7f, 0xff, 0xff, 0xff))
	f.Add([]byte{0, 0x10, 0, 0}) // a bare header announcing 1 MiB
	allocator := daemon{
		wire: frames(hasOp),
		start: func() func(transport.Env) error {
			a := rmf.NewAllocator()
			a.Register("node0", "node0:7101", "compas", 4)
			a.Register("node1", "node1:7101", "compas", 1)
			a.Register("node2", "node2:7101", "rwcp", 2)
			return func(env transport.Env) error { return a.Serve(env, 0, nil) }
		},
		probe: request(rmfAlloc, 1, ""),
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzSession(t, allocator, stream) })
}

func FuzzQServerRequest(f *testing.F) {
	f.Add(request(qSubmit, "quick", 0, 0, "", ""))
	f.Add(request(qSubmit, "quick", 2, "a", "b", 1, "PROXY", "outer:7000", "x-gass://files:7200/in", ""))
	f.Add(request(qSubmit, "missing", 0, 0, "", ""))
	f.Add(request(qSubmit, "quick", 1<<30))
	f.Add(request(qSubmit, "quick", -1))
	f.Add(request(qSubmit, "quick", 0, 1<<30))
	f.Add(request(qSubmit, "quick", 0, -1))
	f.Add(request(qStatus, "node0.1"))
	f.Add(request(qAwait, "node0.1", int64(1e9)))
	f.Add(request(qAwait, "node0.1", int64(-1)))
	f.Add(request(qAwait, "node0.1"))
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(frame(body(qSubmit, "quick", 0, 0, "", ""), body(qAwait, "node0.1", int64(1e9)), body(qStatus, "node0.1")))
	f.Add(frame(body(qSubmit, "quick", 1<<30), body(99), body(qStatus, "node0.1"), []byte{1}))
	f.Add(append(request(qStatus, "node0.7"), 0, 0, 0, 9, 0, 0, 0, 11))
	f.Add([]byte{0, 0x10, 0, 0}) // a bare header announcing 1 MiB
	reg := rmf.NewRegistry()
	reg.Register("quick", func(env transport.Env, ctx *rmf.JobContext) error { return nil })
	qserver := daemon{
		wire: frames(hasOp),
		start: func() func(transport.Env) error {
			q := rmf.NewQServer("node0", "compas", 2, reg)
			return func(env transport.Env) error { return q.Serve(env, 0, "", nil) }
		},
		probe: request(qStatus, "node0.1"),
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzSession(t, qserver, stream) })
}

func FuzzMonitorRequest(f *testing.F) {
	f.Add(request(hbmBeat, "node0"))
	f.Add(request(hbmBeat, ""))
	f.Add(request(hbmBeat, 1<<30))
	f.Add(request(hbmBeat, -1))
	f.Add(request(hbmDeregister, "node1"))
	f.Add(request(hbmDeregister, ""))
	f.Add(request(hbmList))
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(frame(body(hbmBeat, "node2"), body(hbmList), body(hbmDeregister, "node2"), body(hbmList)))
	f.Add(frame(body(hbmBeat, 1<<30), body(99), nil, body(hbmList)))
	f.Add(append(request(hbmBeat, "node0"), 0x7f, 0xff, 0xff, 0xff))
	f.Add([]byte{0, 0x10, 0, 0}) // a bare header announcing 1 MiB
	monitor := daemon{
		wire: frames(hasOp),
		start: func() func(transport.Env) error {
			m := hbm.NewMonitor(250 * time.Millisecond)
			m.BeatBatch(0, []string{"node0", "node1"})
			return func(env transport.Env) error { return m.Serve(env, 0, nil) }
		},
		probe: request(hbmList),
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzSession(t, monitor, stream) })
}

func FuzzDirectoryRequest(f *testing.F) {
	f.Add(request(mdsSearch, "o=grid", ""))
	f.Add(request(mdsSearch, "o=grid", "(freecpus>=8)"))
	f.Add(request(mdsSearch, "ou=etl, o=grid", "(&(objectclass=resource)(cluster=etl))"))
	f.Add(request(mdsSearch, "o=grid", "(((("))
	f.Add(request(mdsSearch, "o=grid"))
	f.Add(request(mdsSearch, 1<<30))
	f.Add(request(mdsSearch, -1))
	f.Add(request(1, "hn=x, o=grid", 1, "cpus", -1)) // an add, which the server no longer takes
	f.Add(request(99))
	f.Add(frame([]byte{0, 0}))
	f.Add(frame(body(mdsSearch, "o=grid", "(freecpus>=8)"), body(99), body(mdsSearch, "o=grid", "((((")))
	f.Add(frame(body(mdsSearch, 1<<30), body(mdsSearch, "o=grid", ""), []byte{1}, body(mdsSearch, "o=grid", "")))
	f.Add(append(request(mdsSearch, "o=grid", ""), 0x7f, 0xff, 0xff, 0xff))
	f.Add([]byte{0, 0x10, 0, 0}) // a bare header announcing 1 MiB
	host := func(cluster string, cpus int) map[string][]string {
		return map[string][]string{"objectclass": {"resource"}, "cluster": {cluster}, "freecpus": {strconv.Itoa(cpus)}}
	}
	directory := daemon{
		wire: frames(hasOp),
		start: func() func(transport.Env) error {
			dir := mds.NewDirectory()
			_ = dir.Add("hn=rwcp-sun, ou=rwcp, o=grid", host("rwcp", 4))
			_ = dir.Add("hn=etl-o2k, ou=etl, o=grid", host("etl", 16))
			srv := mds.NewServer(dir)
			return func(env transport.Env) error { return srv.Serve(env, 0, nil) }
		},
		probe: request(mdsSearch, "o=grid", ""),
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzSession(t, directory, stream) })
}

func FuzzGASSSession(f *testing.F) {
	f.Add(gassRequest(gassGet, "/in", nil))
	f.Add(gassRequest(gassGet, "/missing", nil))
	f.Add(gassRequest(gassPut, "/out", []byte("hello")))
	f.Add(gassRequest(gassPut, "", nil))
	f.Add(append(gassRequest(gassPut, "/a", nil)[:5], 0x04, 0, 0, 0)) // 64 MiB, unsent
	f.Add(append(gassRequest(gassPut, "/a", nil)[:5], 0x04, 0, 0, 1)) // over MaxFileSize
	f.Add(append(gassRequest(gassGet, "/in", nil), gassRequest(9, "/", nil)...))
	f.Add(append(append(gassRequest(gassPut, "/x", []byte("xyz")), gassRequest(gassGet, "/x", nil)...), gassRequest(gassGet, "/in", nil)...))
	f.Add([]byte{gassGet, 0xff, 0xff, '/'})
	server := daemon{
		wire: gassWire,
		start: func() func(transport.Env) error {
			store := gass.NewStore()
			_ = store.Put("/in", bytes.Repeat([]byte("in"), 50))
			srv := gass.NewServer(store)
			return func(env transport.Env) error { return srv.Serve(env, 0, nil) }
		},
		probe: gassRequest(gassGet, "/in", nil),
	}
	f.Fuzz(func(t *testing.T, stream []byte) { fuzzSession(t, server, stream) })
}
