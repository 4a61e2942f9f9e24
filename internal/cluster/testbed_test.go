package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/proxy"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

func TestTestbedTopologyLatencies(t *testing.T) {
	tb := NewTestbed(Options{})
	// RWCP-Sun <-> COMPaS node: ~0.4 ms one way (paper: 0.41 ms direct).
	lat, err := tb.Net.PathLatency(RWCPSun, CompasNode(0))
	if err != nil {
		t.Fatal(err)
	}
	if lat < 300*time.Microsecond || lat > 500*time.Microsecond {
		t.Fatalf("RWCP-Sun<->COMPaS latency = %v, want ~0.4ms", lat)
	}
	// RWCP-Sun <-> ETL-Sun: ~3.9 ms one way across IMnet.
	lat, err = tb.Net.PathLatency(RWCPSun, ETLSun)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 3500*time.Microsecond || lat > 4300*time.Microsecond {
		t.Fatalf("RWCP-Sun<->ETL-Sun latency = %v, want ~3.9ms", lat)
	}
	// The IMnet is the bottleneck to ETL.
	bw, err := tb.Net.PathBandwidth(RWCPSun, ETLO2K)
	if err != nil {
		t.Fatal(err)
	}
	if bw != WANBandwidth {
		t.Fatalf("bottleneck to ETL = %d, want %d", bw, WANBandwidth)
	}
	tb.K.Shutdown()
}

func TestFirewallClosedByDefaultOpenWithOption(t *testing.T) {
	tb := NewTestbed(Options{})
	var dialErr error
	tb.Node(ETLSun).SpawnOn("prober", func(env transport.Env) {
		_, dialErr = env.Dial(transport.JoinAddr(RWCPSun, 9999))
	})
	if err := tb.K.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dialErr, transport.ErrFirewallDenied) {
		t.Fatalf("inbound dial = %v, want firewall denial", dialErr)
	}
	tb.K.Shutdown()

	tb2 := NewTestbed(Options{OpenFirewall: true})
	tb2.Node(RWCPSun).SpawnDaemonOn("listener", func(env transport.Env) {
		l, _ := env.Listen(9999)
		_, _ = l.Accept(env)
	})
	var err2 error
	tb2.Node(ETLSun).SpawnOn("prober", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		_, err2 = env.Dial(transport.JoinAddr(RWCPSun, 9999))
	})
	if err := tb2.K.Run(); err != nil {
		t.Fatal(err)
	}
	if err2 != nil {
		t.Fatalf("open-firewall dial failed: %v", err2)
	}
	tb2.K.Shutdown()
}

func TestProxyDaemonsServeTheTestbed(t *testing.T) {
	tb := NewTestbed(Options{})
	var got string
	tb.Node(ETLSun).SpawnDaemonOn("etl-srv", func(env transport.Env) {
		l, _ := env.Listen(6001)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 5)
		n, _ := c.Read(env, buf)
		got = string(buf[:n])
	})
	tb.Node(RWCPSun).SpawnOn("rwcp-cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		// Active open through the relay, like the paper's Figure 3.
		c, err := env.Dial(tb.ProxyCfg.OuterServer)
		if err != nil {
			t.Errorf("dial outer: %v", err)
			return
		}
		_ = c.Close(env)
	})
	tb.Node(RWCPSun).SpawnOn("rwcp-data", func(env transport.Env) {
		env.Sleep(2 * time.Millisecond)
		d := tb.Dialer()
		c, err := d.Dial(env, transport.JoinAddr(ETLSun, 6001))
		if err != nil {
			t.Errorf("proxied dial: %v", err)
			return
		}
		_, _ = c.Write(env, []byte("hello"))
		env.Sleep(200 * time.Millisecond)
		_ = c.Close(env)
	})
	if err := tb.K.Run(); err != nil {
		t.Fatal(err)
	}
	tb.K.Shutdown()
	if got != "hello" {
		t.Fatalf("relayed payload = %q", got)
	}
	if tb.Outer.Stats().ConnectRelays == 0 {
		t.Fatal("outer server relayed nothing")
	}
}

func TestSystemDefinitionsMatchTable3(t *testing.T) {
	tb := NewTestbed(Options{})
	defer tb.K.Shutdown()
	cases := []struct {
		s     System
		procs int
	}{
		{SystemCompas, 8}, {SystemETLO2K, 8}, {SystemLocal, 12}, {SystemWide, 20},
	}
	for _, tc := range cases {
		if tc.s.Processors() != tc.procs {
			t.Errorf("%s: Processors() = %d, want %d", tc.s, tc.s.Processors(), tc.procs)
		}
		pls := tb.Placements(tc.s, true)
		if len(pls) != tc.procs {
			t.Errorf("%s: %d placements, want %d", tc.s, len(pls), tc.procs)
		}
	}
	// Wide-area with proxy: RWCP ranks proxied, ETL ranks direct.
	pls := tb.Placements(SystemWide, true)
	if !pls[0].Proxy.Enabled() {
		t.Error("RWCP-Sun rank not proxied in wide-area system")
	}
	if pls[19].Proxy.Enabled() {
		t.Error("ETL-O2K rank proxied; ETL has no firewall")
	}
	// Without proxy, nothing is proxied.
	for i, pl := range tb.Placements(SystemWide, false) {
		if pl.Proxy.Enabled() {
			t.Errorf("rank %d proxied in no-proxy configuration", i)
		}
	}
	// COMPaS system: 8 distinct nodes, 1 rank each.
	seen := map[string]bool{}
	for _, pl := range tb.Placements(SystemCompas, true) {
		if seen[pl.Name] {
			t.Errorf("COMPaS node %s used twice", pl.Name)
		}
		seen[pl.Name] = true
		if pl.Proxy.Enabled() {
			t.Error("COMPaS ch_p4 system must not use the proxy")
		}
	}
	if len(tb.SequentialPlacement()) != 1 {
		t.Error("sequential placement is not a single process")
	}
}

func TestTopologyRendering(t *testing.T) {
	tb := NewTestbed(Options{})
	defer tb.K.Shutdown()
	top := tb.Topology()
	for _, want := range []string{"rwcp-sun", "compas00..07", "IMnet", "FIREWALL", "nxport"} {
		if !strings.Contains(top, want) {
			t.Errorf("Topology() missing %q", want)
		}
	}
	for _, s := range []System{SystemCompas, SystemETLO2K, SystemLocal, SystemWide} {
		if s.Describe() == "" || s.String() == "" {
			t.Errorf("system %d lacks description", s)
		}
	}
}

// TestSecuredTestbedRelays: with a site secret configured end to end, the
// relay chains still work, and a client without the secret is refused.
func TestSecuredTestbedRelays(t *testing.T) {
	tb := NewTestbed(Options{Secret: "rwcp-site-secret"})
	defer tb.K.Shutdown()
	var got string
	tb.Node(ETLSun).SpawnDaemonOn("srv", func(env transport.Env) {
		l, _ := env.Listen(6001)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 2)
		n, _ := c.Read(env, buf)
		got = string(buf[:n])
	})
	var noSecretErr error
	tb.Node(RWCPSun).SpawnOn("cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		d := tb.Dialer()
		c, err := d.Dial(env, transport.JoinAddr(ETLSun, 6001))
		if err != nil {
			t.Errorf("secured dial: %v", err)
			return
		}
		_, _ = c.Write(env, []byte("ok"))
		env.Sleep(100 * time.Millisecond)
		// A client missing the secret must be rejected by the outer server.
		bad := tb.ProxyCfg
		bad.Secret = ""
		_, noSecretErr = proxyDialForTest(env, bad, transport.JoinAddr(ETLSun, 6001))
	})
	if err := tb.K.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "ok" {
		t.Fatalf("relayed payload = %q", got)
	}
	if noSecretErr == nil {
		t.Fatal("secretless client accepted by authenticated relay")
	}
}

// proxyDialForTest exposes NXProxyConnect for the secured-testbed test.
func proxyDialForTest(env transport.Env, cfg proxy.Config, addr string) (transport.Conn, error) {
	return proxy.NXProxyConnect(env, cfg, addr)
}

// TestTestbedApplyPlanPartitionGroups: the exported side-node lists must name
// real topology nodes, so suite plans built from them validate.
func TestTestbedApplyPlanPartitionGroups(t *testing.T) {
	plan := (&simnet.FaultPlan{}).Partition(RWCPSideNodes(), ETLSideNodes(), 0, 0)
	tb := NewTestbed(Options{})
	defer tb.Shutdown()
	if err := tb.ApplyPlan(plan); err != nil {
		t.Error(err)
	}
}
