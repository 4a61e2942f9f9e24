package gram

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/firewall"
	"nxcluster/internal/nexus"
	"nxcluster/internal/rmf"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// newGatekeeperTCP makes a fork-only gatekeeper for a loopback TCP env and
// a credential it grants, without serving it.
func newGatekeeperTCP(t *testing.T, reg *rmf.Registry) (*transport.TCPEnv, auth.Credential, *auth.Keyring, *Gatekeeper) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")
	cred, err := auth.NewCredential("/O=Grid/CN=tester")
	if err != nil {
		t.Fatal(err)
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "tester")
	return env, cred, kr, NewGatekeeper(Config{Keyring: kr, Registry: reg})
}

// startGatekeeperTCP boots a fork-only gatekeeper on loopback TCP.
func startGatekeeperTCP(t *testing.T, reg *rmf.Registry) (*transport.TCPEnv, auth.Credential, string, *Gatekeeper) {
	t.Helper()
	env, cred, _, gk := newGatekeeperTCP(t, reg)
	addr := serveGatekeeper(t, env, gk, 0)
	t.Cleanup(func() { gk.Close(env) })
	return env, cred, addr, gk
}

func TestSubmitForkJobTCP(t *testing.T) {
	reg := rmf.NewRegistry()
	var gotArgs []string
	reg.Register("hello", func(e transport.Env, ctx *rmf.JobContext) error {
		gotArgs = ctx.Args
		return nil
	})
	env, cred, addr, _ := startGatekeeperTCP(t, reg)
	contact, err := Submit(env, addr, cred, `&(executable=hello)(arguments=x "y z")`)
	if err != nil {
		t.Fatal(err)
	}
	if contact == "" {
		t.Fatal("empty contact")
	}
	if err := Wait(env, addr, cred, contact, 10*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(gotArgs) != 2 || gotArgs[1] != "y z" {
		t.Fatalf("args = %v", gotArgs)
	}
}

func TestSubmitDeniedWithoutCredential(t *testing.T) {
	reg := rmf.NewRegistry()
	env, _, addr, _ := startGatekeeperTCP(t, reg)
	bad, _ := auth.NewCredential("/CN=stranger")
	if _, err := Submit(env, addr, bad, `&(executable=hello)`); err == nil {
		t.Fatal("unauthenticated submit succeeded")
	}
}

func TestSubmitBadRSL(t *testing.T) {
	env, cred, addr, _ := startGatekeeperTCP(t, rmf.NewRegistry())
	for _, bad := range []string{"notrsl", "&(count=2)", `&(executable=a)(count=-1)`, `&(executable=a)(jobmanager=weird)`} {
		if _, err := Submit(env, addr, cred, bad); err == nil {
			t.Errorf("Submit(%q) succeeded", bad)
		}
	}
}

// TestRefusedSubmitNotListedTCP: a submit refused for its job manager — an
// unknown type, or rmf on a gatekeeper with no allocator — registers no job,
// and its error is a refusal that names its package and the gatekeeper's
// address once each.
func TestRefusedSubmitNotListedTCP(t *testing.T) {
	env, cred, addr, _ := startGatekeeperTCP(t, rmf.NewRegistry())
	for _, rslText := range []string{`&(executable=a)(jobmanager=weird)`, `&(executable=a)(jobmanager=rmf)`} {
		_, err := Submit(env, addr, cred, rslText)
		var se *nexus.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("Submit(%q) = %v, want a refusal", rslText, err)
		}
		if msg := err.Error(); strings.Count(msg, "gram:") != 1 || strings.Count(msg, addr) != 1 {
			t.Fatalf("Submit(%q) error %q: want gram: and %s once each", rslText, msg, addr)
		}
	}
	if got, err := List(env, addr, cred); err != nil || len(got) != 0 {
		t.Fatalf("List after two refused submits = %v, %v; want none", got, err)
	}
}

func TestForkJobFailurePropagates(t *testing.T) {
	reg := rmf.NewRegistry()
	reg.Register("bad", func(e transport.Env, ctx *rmf.JobContext) error {
		return fmt.Errorf("exit 1")
	})
	env, cred, addr, _ := startGatekeeperTCP(t, reg)
	contact, err := Submit(env, addr, cred, `&(executable=bad)`)
	if err != nil {
		t.Fatal(err)
	}
	err = Wait(env, addr, cred, contact, 10*time.Millisecond, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "exit 1") {
		t.Fatalf("Wait = %v", err)
	}
}

func TestStatusUnknownContact(t *testing.T) {
	env, cred, addr, _ := startGatekeeperTCP(t, rmf.NewRegistry())
	if _, _, err := Status(env, addr, cred, "job-999"); err == nil {
		t.Fatal("unknown contact accepted")
	}
}

// TestFigure2FlowInSim runs the paper's Figure 2 end to end in the
// simulator: gatekeeper outside the firewall, allocator and Q servers
// inside, GASS staging, and the six-step submission flow traced.
func TestFigure2FlowInSim(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("client", simnet.HostConfig{})
	n.AddHost("rwcp-outer", simnet.HostConfig{})
	n.AddHost("rwcp-alloc", simnet.HostConfig{Site: "rwcp"})
	n.AddHost("compas00", simnet.HostConfig{Site: "rwcp"})
	n.AddHost("compas01", simnet.HostConfig{Site: "rwcp"})
	lan := simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 12 << 20}
	n.Connect("client", "rwcp-outer", simnet.LinkConfig{Latency: 2 * time.Millisecond, Bandwidth: 1 << 20})
	n.Connect("rwcp-outer", "rwcp-alloc", lan)
	n.Connect("rwcp-alloc", "compas00", lan)
	n.Connect("rwcp-alloc", "compas01", lan)
	fw := firewall.New("rwcp")
	fw.AllowIncomingPort(rmf.AllocatorPort, "RMF allocator")
	fw.AllowIncomingPort(rmf.QServerPort, "RMF Q servers")
	n.SetFirewall("rwcp", fw)

	var traceLines []string
	tracef := func(format string, args ...interface{}) {
		traceLines = append(traceLines, fmt.Sprintf(format, args...))
	}

	reg := rmf.NewRegistry()
	ranOn := map[string]bool{}
	reg.Register("knapsack-worker", func(e transport.Env, ctx *rmf.JobContext) error {
		ranOn[ctx.Resource] = true
		fmt.Fprintf(&ctx.Stdout, "worker on %s", ctx.Resource)
		return nil
	})

	alloc := rmf.NewAllocator()
	alloc.SetTrace(tracef)
	n.Node("rwcp-alloc").SpawnDaemonOn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, rmf.AllocatorPort, nil)
	})
	for _, host := range []string{"compas00", "compas01"} {
		q := rmf.NewQServer(host, "compas", 4, reg)
		q.SetTrace(tracef)
		h := host
		n.Node(h).SpawnDaemonOn("qserver-"+h, func(e transport.Env) {
			e.Sleep(time.Millisecond)
			_ = q.Serve(e, rmf.QServerPort, "rwcp-alloc:7100", nil)
		})
	}

	cred, err := auth.NewCredential("/O=Grid/OU=RWCP/CN=yoshio")
	if err != nil {
		t.Fatal(err)
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "yoshio")
	gk := NewGatekeeper(Config{
		Keyring:       kr,
		Registry:      reg,
		AllocatorAddr: "rwcp-alloc:7100",
	})
	gk.SetTrace(tracef)
	n.Node("rwcp-outer").SpawnDaemonOn("gatekeeper", func(e transport.Env) {
		_ = gk.Serve(e, DefaultPort, nil)
	})

	var submitErr error
	n.Node("client").SpawnOn("globusrun", func(e transport.Env) {
		e.Sleep(5 * time.Millisecond)
		contact, err := Submit(e, "rwcp-outer:2119", cred,
			`&(executable=knapsack-worker)(count=2)(jobmanager=rmf)(cluster=compas)`)
		if err != nil {
			submitErr = err
			return
		}
		submitErr = Wait(e, "rwcp-outer:2119", cred, contact, 10*time.Millisecond, 30*time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	if !ranOn["compas00"] || !ranOn["compas01"] {
		t.Fatalf("processes not spread across resources: %v", ranOn)
	}
	// The Figure 2 steps appear in the trace.
	joined := strings.Join(traceLines, "\n")
	for _, want := range []string{"authenticated", "job request", "creating Q client", "selected", "accepted", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
}

// TestSubmitMultiErrors: the gatekeeper runs one job per request, so a +
// multirequest is refused as a bad request.
func TestSubmitMultiErrors(t *testing.T) {
	env, cred, addr, _ := startGatekeeperTCP(t, rmf.NewRegistry())
	_, err := Submit(env, addr, cred, `+(&(executable=part)(count=2))(&(executable=part)(count=3))`)
	if err == nil || !strings.Contains(err.Error(), "multirequests are not supported") {
		t.Fatalf("multirequest submit = %v, want a refusal", err)
	}
}

func TestListOwnJobs(t *testing.T) {
	reg := rmf.NewRegistry()
	block := make(chan struct{})
	reg.Register("slow", func(e transport.Env, ctx *rmf.JobContext) error {
		<-block
		return nil
	})
	env, cred, addr, gk := startGatekeeperTCP(t, reg)
	defer close(block)

	contact, err := Submit(env, addr, cred, `&(executable=slow)`)
	if err != nil {
		t.Fatal(err)
	}
	// The subject sees its own jobs.
	jobs, err := List(env, addr, cred)
	if err != nil || len(jobs) != 1 || jobs[0] != contact {
		t.Fatalf("List = %v, %v", jobs, err)
	}
	// Another authenticated subject sees no jobs.
	other, _ := auth.NewCredential("/CN=other")
	gk.cfg.Keyring.Grant(other, "other")
	if jobs, err := List(env, addr, other); err != nil || len(jobs) != 0 {
		t.Fatalf("foreign List = %v, %v", jobs, err)
	}
}

// TestListRejectsBadReplyCount: the contact count in a list reply sizes an
// allocation on the client, so a gatekeeper (or whoever answers on its port)
// that lies about it must get an error back, not a panic or a 32 GiB request.
func TestListRejectsBadReplyCount(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	cred, err := auth.NewCredential("/O=Grid/CN=tester")
	if err != nil {
		t.Fatal(err)
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "tester")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	counts := []int32{-1, 1 << 30}
	env.Spawn("lying-gatekeeper", func(e transport.Env) {
		for _, count := range counts {
			c, err := l.Accept(e)
			if err != nil {
				return
			}
			st := transport.Stream{Env: e, Conn: c}
			if _, err := auth.Accept(e, c, kr); err == nil {
				if _, err := nexus.ReadFrame(st, 0); err == nil {
					resp := nexus.NewBuffer()
					resp.PutBool(true)
					resp.PutInt32(count)
					_ = nexus.WriteFrame(st, resp)
				}
			}
			_ = c.Close(e)
		}
	})
	for _, count := range counts {
		got, err := List(env, l.Addr(), cred)
		if err == nil || !strings.Contains(err.Error(), "malformed list reply") {
			t.Fatalf("list with reply count %d: got %v, err = %v, want malformed list reply", count, got, err)
		}
	}
}

// TestRMFJobReleasesAfterDoneTCP: the rmf job manager reports DONE (or
// FAILED) before it returns the job's allocator slots, so gram.Wait can
// return while the slots are still counted; they must still come back. Each
// job runs alone, so after it every resource's load must fall back to 0.
func TestRMFJobReleasesAfterDoneTCP(t *testing.T) {
	reg := rmf.NewRegistry()
	reg.Register("ok", func(e transport.Env, ctx *rmf.JobContext) error { return nil })
	reg.Register("broken", func(e transport.Env, ctx *rmf.JobContext) error {
		return fmt.Errorf("broken on %s", ctx.Resource)
	})
	env, cred, kr, _ := newGatekeeperTCP(t, reg)
	resources := []string{"q0", "q1"}
	alloc, allocAddr, _ := startRMFTCP(t, env, reg, nil, resources...)
	gk := NewGatekeeper(Config{Keyring: kr, Registry: reg, AllocatorAddr: allocAddr, DefaultJobManager: "rmf"})
	gkAddr := serveGatekeeper(t, env, gk, 0)
	t.Cleanup(func() { gk.Close(env) })

	for _, job := range []struct{ exe, fails string }{
		{"ok", ""},
		{"no-such-program", "no such executable"}, // refused at submit
		{"broken", "broken on"},                   // fails as it runs
	} {
		contact, err := Submit(env, gkAddr, cred, fmt.Sprintf(`&(executable=%s)(count=2)`, job.exe))
		if err != nil {
			t.Fatal(err)
		}
		err = Wait(env, gkAddr, cred, contact, time.Millisecond, 5*time.Second)
		if job.fails == "" && err != nil || job.fails != "" && (err == nil || !strings.Contains(err.Error(), job.fails)) {
			t.Fatalf("%s job: Wait = %v, want failure %q", job.exe, err, job.fails)
		}
		deadline := time.Now().Add(2 * time.Second)
		for _, r := range resources {
			for alloc.Load(r) != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s job: load on %s is %d after Wait returned, want 0", job.exe, r, alloc.Load(r))
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// startRMFTCP starts an RMF allocator and one Q server per resource name on
// env, each traced by tracef (when not nil), and returns the allocator once
// every Q server has registered, and a stop that closes them all (run again
// at the test's end).
func startRMFTCP(t *testing.T, env transport.Env, reg *rmf.Registry, tracef func(string, ...interface{}), resources ...string) (alloc *rmf.Allocator, allocAddr string, stop func()) {
	t.Helper()
	alloc = rmf.NewAllocator()
	if tracef != nil {
		alloc.SetTrace(tracef)
	}
	allocReady := make(chan string, 1)
	env.Spawn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, 0, func(a string) { allocReady <- a })
	})
	allocAddr = <-allocReady
	daemons := []interface{ Close(transport.Env) }{alloc}
	stop = func() {
		for _, d := range daemons {
			d.Close(env)
		}
	}
	t.Cleanup(stop)
	for _, name := range resources {
		q := rmf.NewQServer(name, "c", 2, reg)
		if tracef != nil {
			q.SetTrace(tracef)
		}
		ready := make(chan string, 1)
		env.Spawn("qserver-"+name, func(e transport.Env) {
			_ = q.Serve(e, 0, allocAddr, func(a string) { ready <- a })
		})
		<-ready
		daemons = append(daemons, q)
	}
	for _, name := range resources {
		for alloc.Load(name) < 0 {
			time.Sleep(time.Millisecond) // registration is asynchronous
		}
	}
	return alloc, allocAddr, stop
}

// TestSubmitRepliesPlacedTCP: the gatekeeper replies to an rmf Submit once
// the job is placed, so when Submit returns, the Q servers already hold the
// job's processes.
func TestSubmitRepliesPlacedTCP(t *testing.T) {
	reg := rmf.NewRegistry()
	hold := make(chan struct{})
	reg.Register("hold", func(e transport.Env, ctx *rmf.JobContext) error {
		<-hold
		return nil
	})
	var mu sync.Mutex
	accepted := 0
	count := func(format string, args ...interface{}) {
		if strings.Contains(format, "accepted") {
			mu.Lock()
			accepted++
			mu.Unlock()
		}
	}
	env, cred, kr, _ := newGatekeeperTCP(t, reg)
	_, allocAddr, _ := startRMFTCP(t, env, reg, count, "q0", "q1")
	gk := NewGatekeeper(Config{Keyring: kr, Registry: reg, AllocatorAddr: allocAddr, DefaultJobManager: "rmf"})
	addr := serveGatekeeper(t, env, gk, 0)
	t.Cleanup(func() { gk.Close(env) })

	const procs = 3
	contact, err := Submit(env, addr, cred, fmt.Sprintf(`&(executable=hold)(count=%d)`, procs))
	mu.Lock()
	held := accepted
	mu.Unlock()
	close(hold)
	if err != nil {
		t.Fatal(err)
	}
	if held != procs {
		t.Fatalf("the Q servers held %d processes when Submit returned, want %d", held, procs)
	}
	if err := Wait(env, addr, cred, contact, time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitPlacementFailsTCP: a job whose placement fails still gets a
// contact, and its Status is FAILED with the rmf error.
func TestSubmitPlacementFailsTCP(t *testing.T) {
	env, cred, kr, _ := newGatekeeperTCP(t, okRegistry())
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	refusing := l.Addr()
	_ = l.Close(env)
	gk := NewGatekeeper(Config{Keyring: kr, Registry: okRegistry(), AllocatorAddr: refusing})
	addr := serveGatekeeper(t, env, gk, 0)
	t.Cleanup(func() { gk.Close(env) })

	contact, err := Submit(env, addr, cred, `&(executable=ok)(jobmanager=rmf)`)
	if err != nil {
		t.Fatalf("Submit = %v, want a contact", err)
	}
	state, msg, err := Status(env, addr, cred, contact)
	if err != nil || state != stateFailed || !strings.Contains(msg, "rmf: dial "+refusing) {
		t.Fatalf("Status = %d, %q, %v; want FAILED with the rmf dial error", state, msg, err)
	}
}
