package rmf

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/firewall"
	"nxcluster/internal/gass"
	"nxcluster/internal/gridftp"
	"nxcluster/internal/hbm"
	"nxcluster/internal/mds"
	"nxcluster/internal/nexus"
	"nxcluster/internal/proxy"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

func TestAllocatorSelection(t *testing.T) {
	a := NewAllocator()
	a.Register("rwcp-sun", "rwcp-sun:7101", "rwcp", 4)
	a.Register("compas00", "compas00:7101", "compas", 1)
	a.Register("compas01", "compas01:7101", "compas", 1)

	// Least fractional load first; ties by name.
	names, addrs, err := a.allocate(3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || len(addrs) != 3 {
		t.Fatalf("allocate = %v", names)
	}
	// First three slots spread across all empty resources.
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if len(seen) != 3 {
		t.Fatalf("slots not spread: %v", names)
	}
	// The 4-CPU host absorbs subsequent load before 1-CPU hosts double up.
	more, _, err := a.allocate(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range more {
		if n != "rwcp-sun" {
			t.Fatalf("expected rwcp-sun to absorb load, got %v", more)
		}
	}
	if a.Load("rwcp-sun") != 3 {
		t.Fatalf("load = %d", a.Load("rwcp-sun"))
	}
	a.release([]string{"rwcp-sun", "rwcp-sun"})
	if a.Load("rwcp-sun") != 1 {
		t.Fatalf("load after release = %d", a.Load("rwcp-sun"))
	}
}

func TestAllocatorClusterFilterAndEmpty(t *testing.T) {
	a := NewAllocator()
	a.Register("etl-o2k", "etl-o2k:7101", "etl", 16)
	if _, _, err := a.allocate(1, "rwcp"); !errors.Is(err, ErrNoResources) {
		t.Fatalf("filtered allocate = %v", err)
	}
	names, _, err := a.allocate(2, "etl")
	if err != nil || len(names) != 2 {
		t.Fatalf("allocate etl = %v, %v", names, err)
	}
	if a.Load("missing") != -1 {
		t.Fatal("Load(missing) != -1")
	}
}

// sortAllocator is the allocator as it was before it kept a heap: a map of
// resources, and an allocate that collects the eligible ones and re-sorts
// them with float compares once per slot. It is the reference the heap is
// checked against.
type sortAllocator map[string]*resourceInfo

func (a sortAllocator) Register(name, addr, cluster string, cpus int) {
	if r, ok := a[name]; ok {
		r.Addr, r.Cluster, r.CPUs = addr, cluster, cpus
		return
	}
	a[name] = &resourceInfo{Name: name, Addr: addr, Cluster: cluster, CPUs: cpus}
}

func (a sortAllocator) allocate(count int, cluster string) ([]string, []string, error) {
	var cands []*resourceInfo
	for _, r := range a {
		if cluster != "" && r.Cluster != cluster {
			continue
		}
		if r.Health == hbm.Down {
			continue
		}
		cands = append(cands, r)
	}
	if len(cands) == 0 {
		return nil, nil, ErrNoResources
	}
	var names, addrs []string
	for i := 0; i < count; i++ {
		sort.Slice(cands, func(x, y int) bool {
			sx, sy := cands[x].Health == hbm.Suspect, cands[y].Health == hbm.Suspect
			if sx != sy {
				return sy
			}
			lx := float64(cands[x].Load) / float64(cands[x].CPUs)
			ly := float64(cands[y].Load) / float64(cands[y].CPUs)
			if lx != ly {
				return lx < ly
			}
			return cands[x].Name < cands[y].Name
		})
		pick := cands[0]
		pick.Load++
		names = append(names, pick.Name)
		addrs = append(addrs, pick.Addr)
	}
	return names, addrs, nil
}

func (a sortAllocator) release(names []string) {
	for _, n := range names {
		if r, ok := a[n]; ok && r.Load > 0 {
			r.Load--
		}
	}
}

func (a sortAllocator) SetHealth(name string, h hbm.Health) {
	if r, ok := a[name]; ok {
		if h == hbm.Down && r.Health != hbm.Down {
			r.Load = 0
		}
		r.Health = h
	}
}

// TestAllocatorOrderIsTheSortOrder drives the heap and the sort it replaced
// with one seeded script of everything that moves a resource's key —
// registration with mixed CPU counts over three clusters, re-registration
// that changes CPUs, cluster and address, allocation with and without a
// cluster filter, release (of slots held and not held), and health through
// UP, SUSPECT, DOWN and back — and wants the same names, addresses and errors
// at every step.
func TestAllocatorOrderIsTheSortOrder(t *testing.T) {
	clusters := []string{"compas", "etl", "rwcp"}
	healths := []hbm.Health{hbm.Up, hbm.Late, hbm.Suspect, hbm.Down}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewAllocator(), sortAllocator{}
		var held []string
		// 6, 12, 24 and 48 names: on few, a cluster often has nothing but
		// SUSPECT or DOWN resources (ErrNoResources on about one request in
		// ten at 6); on many, the load order decides.
		pool := 6 << (seed - 1)
		name := func() string { return fmt.Sprintf("node%02d", rng.Intn(pool)) }
		for step := 0; step < 10_000; step++ {
			switch op := rng.Intn(10); {
			case op < 2:
				n, c, cpus := name(), clusters[rng.Intn(3)], 1+rng.Intn(8)
				addr := fmt.Sprintf("%s.%s:%d", n, c, 7101+rng.Intn(2))
				got.Register(n, addr, c, cpus)
				want.Register(n, addr, c, cpus)
			case op < 6:
				count, cluster := 1+rng.Intn(4), ""
				if rng.Intn(2) == 0 {
					cluster = clusters[rng.Intn(3)]
				}
				gn, ga, gerr := got.allocate(count, cluster)
				wn, wa, werr := want.allocate(count, cluster)
				if !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(ga, wa) || gerr != werr {
					t.Fatalf("seed %d step %d: allocate(%d, %q) = %v %v %v, the sort gives %v %v %v",
						seed, step, count, cluster, gn, ga, gerr, wn, wa, werr)
				}
				held = append(held, gn...)
			case op < 8:
				var names []string
				for i := rng.Intn(4); i > 0 && len(held) > 0; i-- {
					j := rng.Intn(len(held))
					names = append(names, held[j])
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
				names = append(names, name()) // one it may not hold, or know
				got.release(names)
				want.release(names)
			default:
				n, h := name(), healths[rng.Intn(len(healths))]
				got.SetHealth(n, h)
				want.SetHealth(n, h)
			}
		}
		for n, r := range want {
			if got.Load(n) != r.Load || got.Health(n) != r.Health {
				t.Fatalf("seed %d: %s ends at load %d health %v, the sort at %d %v",
					seed, n, got.Load(n), got.Health(n), r.Load, r.Health)
			}
		}
	}
}

// TestAllocateAllocatesItsResultOnly pins the cost of a slot beside
// TestShardAllocateZeroAlloc: at 1,024 resources a two-slot request
// allocates the two slices it returns and nothing else, no candidate list
// and nothing per comparison.
func TestAllocateAllocatesItsResultOnly(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 1024; i++ {
		a.Register(fmt.Sprintf("node%04d", i), "localhost:1", "default", 2)
	}
	avg := testing.AllocsPerRun(100, func() {
		names, _, err := a.allocate(2, "")
		if err != nil {
			t.Fatal(err)
		}
		a.release(names)
	})
	if avg != 2 {
		t.Fatalf("allocate(2, \"\") + release at 1,024 resources: %.1f allocs/run, want 2", avg)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("empty registry found a program")
	}
	r.Register("hello", func(env transport.Env, ctx *JobContext) error { return nil })
	if _, ok := r.Lookup("hello"); !ok {
		t.Fatal("registered program missing")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StatePending: "PENDING", StateActive: "ACTIVE", StateDone: "DONE", StateFailed: "FAILED",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
}

// startRMFTCP boots an allocator plus two Q servers on loopback TCP.
func startRMFTCP(t *testing.T, reg *Registry) (env *transport.TCPEnv, allocAddr string, qAddrs []string) {
	t.Helper()
	env = transport.NewTCPEnv("localhost")
	alloc := NewAllocator()
	ready := make(chan string, 1)
	env.Spawn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, 0, func(a string) { ready <- a })
	})
	allocAddr = <-ready
	t.Cleanup(func() { alloc.Close(env) })
	for i := 0; i < 2; i++ {
		q := NewQServer(fmt.Sprintf("node%d", i), "test", 2, reg)
		qr := make(chan string, 1)
		env.Spawn("qserver", func(e transport.Env) {
			_ = q.Serve(e, 0, allocAddr, func(a string) { qr <- a })
		})
		qAddrs = append(qAddrs, <-qr)
		qq := q
		t.Cleanup(func() { qq.Close(env) })
	}
	return env, allocAddr, qAddrs
}

func TestSubmitJobEndToEndTCP(t *testing.T) {
	reg := NewRegistry()
	reg.Register("greet", func(env transport.Env, ctx *JobContext) error {
		env.Sleep(20 * time.Millisecond) // still running when the Q client first asks
		fmt.Fprintf(&ctx.Stdout, "hello %s from %s (stdin=%q, PROXY=%s)",
			strings.Join(ctx.Args, ","), ctx.Resource, ctx.Stdin, ctx.Env["PROXY"])
		return nil
	})
	env, allocAddr, _ := startRMFTCP(t, reg)

	// GASS server for staging.
	store := gass.NewStore()
	gsrv := gass.NewServer(store)
	gready := make(chan string, 1)
	env.Spawn("gass", func(e transport.Env) {
		_ = gsrv.Serve(e, 0, func(a string) { gready <- a })
	})
	gaddr := <-gready
	defer gsrv.Close(env)
	store.Put("/in", []byte("input-bytes"))

	h, err := SubmitJob(env, allocAddr, JobRequest{
		Count: 2,
		Spec: ProcessSpec{
			Executable: "greet",
			Args:       []string{"a", "b"},
			Env:        map[string]string{"PROXY": "outer:7000"},
			StdinURL:   gass.URL(gaddr, "/in"),
			StdoutURL:  gass.URL(gaddr, "/out"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Processes) != 2 {
		t.Fatalf("%d processes", len(h.Processes))
	}
	// poll bounds how long Wait goes without checking its deadline, not how
	// long after the last process ends it returns.
	start := time.Now()
	if err := h.Wait(env, time.Second, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("Wait(poll = 1s) on two 20 ms processes took %v", waited)
	}
	// Outputs staged out with per-process suffixes.
	for i := 0; i < 2; i++ {
		out, err := store.Get(fmt.Sprintf("/out#%d", i))
		if err != nil {
			t.Fatalf("stdout %d: %v", i, err)
		}
		s := string(out)
		if !strings.Contains(s, "hello a,b") || !strings.Contains(s, `stdin="input-bytes"`) ||
			!strings.Contains(s, "PROXY=outer:7000") {
			t.Fatalf("stdout %d = %q", i, s)
		}
	}
}

// TestSubmitJobGridFTPStaging stages a bulk input in and the output out over
// the gridftp data plane instead of GASS, selected purely by URL scheme.
func TestSubmitJobGridFTPStaging(t *testing.T) {
	reg := NewRegistry()
	reg.Register("bulk", func(env transport.Env, ctx *JobContext) error {
		fmt.Fprintf(&ctx.Stdout, "got %d bytes", len(ctx.Stdin))
		ctx.Stdout.Write(ctx.Stdin[:16])
		return nil
	})
	env, allocAddr, _ := startRMFTCP(t, reg)

	store := gass.NewStore()
	gsrv := gridftp.NewServer(store, proxy.Dialer{})
	gready := make(chan string, 1)
	env.Spawn("gridftp", func(e transport.Env) {
		_ = gsrv.Serve(e, 0, func(a string) { gready <- a })
	})
	gaddr := <-gready
	defer gsrv.Close(env)
	input := make([]byte, 200<<10)
	for i := range input {
		input[i] = byte(i * 3)
	}
	store.Put("/bulk/in", input)

	h, err := SubmitJob(env, allocAddr, JobRequest{
		Count: 1,
		Spec: ProcessSpec{
			Executable: "bulk",
			StdinURL:   gridftp.URL(gaddr, "/bulk/in"),
			StdoutURL:  gridftp.URL(gaddr, "/bulk/out"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(env, 10*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	out, err := store.Get("/bulk/out")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("got %d bytes", len(input))
	if !strings.HasPrefix(string(out), want) {
		t.Fatalf("stdout = %q", out)
	}
}

func TestSubmitUnknownExecutable(t *testing.T) {
	env, allocAddr, _ := startRMFTCP(t, NewRegistry())
	_, err := SubmitJob(env, allocAddr, JobRequest{Count: 1, Spec: ProcessSpec{Executable: "missing"}})
	if err == nil || !strings.Contains(err.Error(), "no such executable") {
		t.Fatalf("err = %v", err)
	}
}

func TestFailedProgramReportsFailure(t *testing.T) {
	reg := NewRegistry()
	reg.Register("boom", func(env transport.Env, ctx *JobContext) error {
		return errors.New("segfault (simulated)")
	})
	env, allocAddr, _ := startRMFTCP(t, reg)
	h, err := SubmitJob(env, allocAddr, JobRequest{Count: 1, Spec: ProcessSpec{Executable: "boom"}})
	if err != nil {
		t.Fatal(err)
	}
	err = h.Wait(env, 10*time.Millisecond, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "segfault") {
		t.Fatalf("Wait = %v, want failure", err)
	}
}

func TestStatusUnknownJob(t *testing.T) {
	env, _, qAddrs := startRMFTCP(t, NewRegistry())
	if _, _, err := Status(env, qAddrs[0], "node0.999"); err == nil {
		t.Fatal("unknown job id accepted")
	}
}

// TestRMFBeyondFirewallInSim reproduces the paper's deployment shape: the Q
// client runs outside the firewall (on the gatekeeper host) and reaches the
// allocator and Q servers inside only because the firewall opens their
// registered ports.
func TestRMFBeyondFirewallInSim(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("gatekeeper", simnet.HostConfig{})
	n.AddHost("allocator", simnet.HostConfig{Site: "rwcp"})
	n.AddHost("node0", simnet.HostConfig{Site: "rwcp"})
	lan := simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 12 << 20}
	n.Connect("gatekeeper", "allocator", lan)
	n.Connect("allocator", "node0", lan)
	fw := firewall.New("rwcp")
	fw.AllowIncomingPort(AllocatorPort, "RMF: Q client -> allocator")
	fw.AllowIncomingPort(QServerPort, "RMF: Q client -> Q server")
	n.SetFirewall("rwcp", fw)

	reg := NewRegistry()
	ran := false
	reg.Register("touch", func(env transport.Env, ctx *JobContext) error {
		ran = true
		return nil
	})
	alloc := NewAllocator()
	n.Node("allocator").SpawnDaemonOn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, AllocatorPort, nil)
	})
	q := NewQServer("node0", "rwcp", 4, reg)
	n.Node("node0").SpawnDaemonOn("qserver", func(e transport.Env) {
		e.Sleep(time.Millisecond) // allocator first
		_ = q.Serve(e, QServerPort, "allocator:7100", nil)
	})

	var jobErr error
	n.Node("gatekeeper").SpawnOn("qclient", func(e transport.Env) {
		e.Sleep(5 * time.Millisecond)
		h, err := SubmitJob(e, "allocator:7100", JobRequest{Count: 1, Spec: ProcessSpec{Executable: "touch"}})
		if err != nil {
			jobErr = err
			return
		}
		jobErr = h.Wait(e, 5*time.Millisecond, 10*time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	if !ran {
		t.Fatal("job never executed")
	}
	// The firewall really was consulted: without the opened ports the same
	// dial is denied.
	if fw.AllowedCount() == 0 {
		t.Fatal("firewall saw no traffic")
	}
}

// TestAllocatorPublishesToMDS verifies the GIS mirror: registrations appear
// as directory entries and allocations update their load attribute.
func TestAllocatorPublishesToMDS(t *testing.T) {
	env := transport.NewTCPEnv("localhost")

	dir := mds.NewDirectory()
	msrv := mds.NewServer(dir)
	mready := make(chan string, 1)
	env.Spawn("mds", func(e transport.Env) {
		_ = msrv.Serve(e, 0, func(a string) { mready <- a })
	})
	mdsAddr := <-mready
	defer msrv.Close(env)

	alloc := NewAllocator()
	alloc.PublishTo(mdsAddr, "ou=rwcp, o=grid")
	aready := make(chan string, 1)
	env.Spawn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, 0, func(a string) { aready <- a })
	})
	allocAddr := <-aready
	defer alloc.Close(env)

	if err := RegisterResource(env, allocAddr, "compas00", "compas00:7101", "compas", 4); err != nil {
		t.Fatal(err)
	}
	// Publication is asynchronous; poll briefly.
	var e *mds.Entry
	var err error
	for i := 0; i < 200; i++ {
		e, err = mds.Client{Addr: mdsAddr}.Get(env, "hn=compas00, ou=rwcp, o=grid")
		if err == nil {
			break
		}
		env.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("entry never appeared: %v", err)
	}
	if e.First("cluster") != "compas" || e.Int("cpus", 0) != 4 || e.Int("load", -1) != 0 {
		t.Fatalf("entry = %+v", e.Attrs)
	}

	if _, _, err := Allocate(env, allocAddr, 2, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e, _ = mds.Client{Addr: mdsAddr}.Get(env, "hn=compas00, ou=rwcp, o=grid")
		if e != nil && e.Int("load", -1) == 2 {
			break
		}
		env.Sleep(5 * time.Millisecond)
	}
	if e.Int("load", -1) != 2 {
		t.Fatalf("load = %s, want 2", e.First("load"))
	}
	if err := Release(env, allocAddr, []string{"compas00", "compas00"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e, _ = mds.Client{Addr: mdsAddr}.Get(env, "hn=compas00, ou=rwcp, o=grid")
		if e != nil && e.Int("load", -1) == 0 {
			break
		}
		env.Sleep(5 * time.Millisecond)
	}
	if e.Int("load", -1) != 0 {
		t.Fatalf("load after release = %s, want 0", e.First("load"))
	}
	if alloc.MDSErrors() != 0 {
		t.Fatalf("MDS errors: %d", alloc.MDSErrors())
	}
}

// TestAllocatorSurvivesMissingMDS: publishing is best-effort.
func TestAllocatorSurvivesMissingMDS(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	// Find a dead port.
	l, _ := env.Listen(0)
	dead := l.Addr()
	_ = l.Close(env)

	alloc := NewAllocator()
	alloc.PublishTo(dead, "o=grid")
	aready := make(chan string, 1)
	env.Spawn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, 0, func(a string) { aready <- a })
	})
	allocAddr := <-aready
	defer alloc.Close(env)

	if err := RegisterResource(env, allocAddr, "n0", "n0:1", "c", 1); err != nil {
		t.Fatalf("registration failed because of MDS: %v", err)
	}
	if _, _, err := Allocate(env, allocAddr, 1, ""); err != nil {
		t.Fatalf("allocation failed because of MDS: %v", err)
	}
	for i := 0; i < 200 && alloc.MDSErrors() == 0; i++ {
		env.Sleep(5 * time.Millisecond)
	}
	if alloc.MDSErrors() == 0 {
		t.Fatal("publish failures not counted")
	}
}

// TestAllocatorRejectsBadReleaseCount: a release whose name count the frame
// cannot hold (negative, or far beyond its bytes) is a 12-byte message from
// anyone who can reach the allocator's port. It must get an error reply, not
// size an allocation, and the allocator must keep serving.
func TestAllocatorRejectsBadReleaseCount(t *testing.T) {
	env, allocAddr, _ := startRMFTCP(t, NewRegistry())
	for _, count := range []int32{-1, 1 << 30} {
		req := nexus.NewBuffer()
		req.PutInt32(opRelease)
		req.PutInt32(count)
		_, err := roundTrip(env, allocAddr, req)
		if err == nil || !strings.Contains(err.Error(), "malformed release") {
			t.Fatalf("release with count %d: err = %v, want malformed release", count, err)
		}
	}
	if names, _, err := Allocate(env, allocAddr, 1, ""); err != nil || len(names) != 1 {
		t.Fatalf("allocate after bad releases: names = %v, err = %v", names, err)
	}
}
