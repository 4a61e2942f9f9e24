package gram

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/firewall"
	"nxcluster/internal/nexus"
	"nxcluster/internal/rmf"
	"nxcluster/internal/rsl"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// startGatekeeperTCP boots a fork-only gatekeeper on loopback TCP.
func startGatekeeperTCP(t *testing.T, reg *rmf.Registry) (*transport.TCPEnv, auth.Credential, string, *Gatekeeper) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")
	cred, err := auth.NewCredential("/O=Grid/CN=tester")
	if err != nil {
		t.Fatal(err)
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "tester")
	gk := NewGatekeeper(Config{Keyring: kr, Registry: reg})
	ready := make(chan string, 1)
	env.Spawn("gk", func(e transport.Env) {
		_ = gk.Serve(e, 0, func(a string) { ready <- a })
	})
	addr := <-ready
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

// TestDUROCMultirequest co-allocates one job across two gatekeepers.
func TestDUROCMultirequest(t *testing.T) {
	regA := rmf.NewRegistry()
	regB := rmf.NewRegistry()
	var ranA, ranB atomic.Int64
	regA.Register("part", func(e transport.Env, ctx *rmf.JobContext) error { ranA.Add(1); return nil })
	regB.Register("part", func(e transport.Env, ctx *rmf.JobContext) error { ranB.Add(1); return nil })

	envA, credA, addrA, _ := startGatekeeperTCP(t, regA)
	// Second gatekeeper shares the credential/keyring world via its own env.
	kr := auth.NewKeyring()
	kr.Grant(credA, "tester")
	gkB := NewGatekeeper(Config{Keyring: kr, Registry: regB})
	readyB := make(chan string, 1)
	envA.Spawn("gkB", func(e transport.Env) {
		_ = gkB.Serve(e, 0, func(a string) { readyB <- a })
	})
	addrB := <-readyB
	defer gkB.Close(envA)

	spec, err := rsl.Parse(fmt.Sprintf(
		`+(&(resourceManagerContact=rwcp)(executable=part)(count=2))(&(resourceManagerContact=etl)(executable=part)(count=3))`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := SubmitMulti(envA, credA, spec, map[string]string{"rwcp": addrA, "etl": addrB})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("%d subjobs", len(jobs))
	}
	if err := WaitMulti(envA, credA, jobs, 10*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if ranA.Load() != 2 || ranB.Load() != 3 {
		t.Fatalf("ranA=%d ranB=%d, want 2,3", ranA.Load(), ranB.Load())
	}
}

func TestSubmitMultiErrors(t *testing.T) {
	env, cred, addr, _ := startGatekeeperTCP(t, rmf.NewRegistry())
	single, _ := rsl.Parse(`&(executable=a)`)
	if _, err := SubmitMulti(env, cred, single, nil); err == nil {
		t.Fatal("single spec accepted by SubmitMulti")
	}
	multi, _ := rsl.Parse(`+(&(executable=a))`)
	if _, err := SubmitMulti(env, cred, multi, map[string]string{"x": addr}); err == nil {
		t.Fatal("missing resourceManagerContact accepted")
	}
	multi2, _ := rsl.Parse(`+(&(resourceManagerContact=unknown)(executable=a))`)
	if _, err := SubmitMulti(env, cred, multi2, map[string]string{"x": addr}); err == nil {
		t.Fatal("unknown contact accepted")
	}
}

func TestCancelAndList(t *testing.T) {
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
	// Another authenticated subject sees no jobs and cannot cancel this one.
	other, _ := auth.NewCredential("/CN=other")
	gk.cfg.Keyring.Grant(other, "other")
	if jobs, err := List(env, addr, other); err != nil || len(jobs) != 0 {
		t.Fatalf("foreign List = %v, %v", jobs, err)
	}
	if err := Cancel(env, addr, other, contact); err == nil ||
		!strings.Contains(err.Error(), "another subject") {
		t.Fatalf("foreign cancel = %v, want ownership error", err)
	}
	if err := Cancel(env, addr, cred, contact); err != nil {
		t.Fatal(err)
	}
	// Canceled jobs report failure with the cancellation message.
	err = Wait(env, addr, cred, contact, 10*time.Millisecond, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("Wait after cancel = %v", err)
	}
	// Double cancel is rejected.
	if err := Cancel(env, addr, cred, contact); err == nil {
		t.Fatal("double cancel succeeded")
	}
	// Unknown contact.
	if err := Cancel(env, addr, cred, "job-999"); err == nil {
		t.Fatal("cancel of unknown contact succeeded")
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
