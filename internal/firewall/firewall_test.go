package firewall

import (
	"maps"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypicalConfigDeniesUnknownIncoming(t *testing.T) {
	f := New("rwcp")
	if f.PermitConn(Incoming, "outside", "inside", 45678) {
		t.Fatal("deny-based incoming permitted an unopened port")
	}
	if !f.PermitConn(Outgoing, "inside", "outside", 45678) {
		t.Fatal("allow-based outgoing denied a connection")
	}
}

func TestAllowIncomingPortOpensExactlyThatPort(t *testing.T) {
	f := New("rwcp")
	f.AllowIncomingPort(7010, "nxport: outer->inner proxy channel")
	if !f.PermitConn(Incoming, "outer", "inner", 7010) {
		t.Fatal("opened nxport denied")
	}
	if f.PermitConn(Incoming, "outer", "inner", 7011) {
		t.Fatal("adjacent port permitted")
	}
	if f.PermitConn(Incoming, "outer", "inner", 7009) {
		t.Fatal("adjacent port permitted")
	}
}

func TestAllowIncomingRange(t *testing.T) {
	f := New("site")
	f.AllowIncomingRange(40000, 40100, "TCP_MIN_PORT/TCP_MAX_PORT style")
	for _, tc := range []struct {
		port int
		want bool
	}{
		{39999, false}, {40000, true}, {40050, true}, {40100, true}, {40101, false},
	} {
		if got := f.PermitConn(Incoming, "a", "b", tc.port); got != tc.want {
			t.Errorf("port %d: permit=%v, want %v", tc.port, got, tc.want)
		}
	}
}

func TestFirstMatchWins(t *testing.T) {
	f := New("site")
	f.Incoming.Rules = []Rule{
		{PortMin: 80, PortMax: 80, Policy: Deny, Comment: "explicit deny"},
		{PortMin: 1, PortMax: 1024, Policy: Allow, Comment: "low ports"},
	}
	if f.PermitConn(Incoming, "a", "b", 80) {
		t.Fatal("first-match deny overridden by later allow")
	}
	if !f.PermitConn(Incoming, "a", "b", 81) {
		t.Fatal("range allow not applied")
	}
}

func TestDenyOutgoingPort(t *testing.T) {
	f := New("site")
	f.Outgoing.Rules = append(f.Outgoing.Rules, Rule{PortMin: 25, PortMax: 25, Policy: Deny, Comment: "no smtp"})
	if f.PermitConn(Outgoing, "in", "out", 25) {
		t.Fatal("denied outgoing port permitted")
	}
	if !f.PermitConn(Outgoing, "in", "out", 26) {
		t.Fatal("default outgoing allow broken")
	}
}

func TestOpenFirewallPermitsEverything(t *testing.T) {
	f := Open("etl")
	if !f.PermitConn(Incoming, "a", "b", 1) || !f.PermitConn(Outgoing, "b", "a", 65535) {
		t.Fatal("Open firewall denied a connection")
	}
}

func TestCountersAndAudit(t *testing.T) {
	f := New("rwcp")
	f.AllowIncomingPort(7010, "nxport")
	f.PermitConn(Incoming, "outer", "inner", 7010)
	f.PermitConn(Incoming, "outer", "inner", 7010)
	f.PermitConn(Incoming, "evil", "inner", 22)
	if f.AllowedCount() != 2 {
		t.Fatalf("AllowedCount = %d, want 2", f.AllowedCount())
	}
	if f.DeniedCount() != 1 {
		t.Fatalf("DeniedCount = %d, want 1", f.DeniedCount())
	}
	if len(f.allowed) != 1 || len(f.denied) != 1 {
		t.Fatalf("tallies allowed=%v denied=%v, want one decision each", f.allowed, f.denied)
	}
}

func TestDescribeMentionsRules(t *testing.T) {
	f := New("rwcp")
	f.AllowIncomingPort(7010, "nxport")
	d := f.Describe()
	for _, want := range []string{"rwcp", "incoming: default deny", "outgoing: default allow", "7010", "nxport"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestWildcardRuleMatchesAllPorts(t *testing.T) {
	rs := RuleSet{Default: Allow, Rules: []Rule{{Policy: Deny, Comment: "block all"}}}
	for _, port := range []int{1, 80, 65535} {
		if rs.Verdict(port) != Deny {
			t.Errorf("wildcard rule missed port %d", port)
		}
	}
}

// Property: a deny-based incoming rule set with a single allowed port permits
// that port and nothing else.
func TestQuickSinglePortProperty(t *testing.T) {
	prop := func(open uint16, probe uint16) bool {
		if open == 0 {
			return true // port 0 is the wildcard sentinel, not a real port
		}
		f := New("s")
		f.AllowIncomingPort(int(open), "t")
		got := f.PermitConn(Incoming, "a", "b", int(probe))
		return got == (probe == open)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: verdicts depend only on (direction, port), never on endpoint
// names, matching the paper's packet-filter model.
func TestQuickEndpointIndependence(t *testing.T) {
	prop := func(port uint16, a, b, c, d string) bool {
		f := New("s")
		f.AllowIncomingRange(100, 30000, "r")
		return f.PermitConn(Incoming, a, b, int(port)) == f.PermitConn(Incoming, c, d, int(port))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionTallies: counters are keyed on the decision, one tally per
// distinct (direction, source, destination, port), repeats folded, across
// mixed directions, ports and verdicts.
func TestDecisionTallies(t *testing.T) {
	f := New("rwcp")
	f.AllowIncomingPort(2811, "gridftp")
	f.Outgoing.Rules = append(f.Outgoing.Rules, Rule{PortMin: 25, PortMax: 25, Policy: Deny, Comment: "smtp"})
	for _, c := range []struct {
		dir      Direction
		src, dst string
		port     int
	}{
		{Incoming, "etl-0", "rwcp-gw", 2811},
		{Incoming, "etl-0", "rwcp-gw", 40000},
		{Outgoing, "rwcp-1", "etl-0", 25},
		{Outgoing, "rwcp-1", "etl-0", 8000},
		{Incoming, "etl-0", "rwcp-gw", 2811},
		{Outgoing, "rwcp-10", "etl-0", 8000},
		{Incoming, "etl-1", "rwcp-gw", 9},
		{Outgoing, "rwcp-1", "etl-0", 25},
		{Incoming, "a", "b", 0},
	} {
		f.PermitConn(c.dir, c.src, c.dst, c.port)
	}
	wantAllowed := map[decision]int{
		{Incoming, "etl-0", "rwcp-gw", 2811}: 2,
		{Outgoing, "rwcp-1", "etl-0", 8000}:  1,
		{Outgoing, "rwcp-10", "etl-0", 8000}: 1,
	}
	wantDenied := map[decision]int{
		{Incoming, "a", "b", 0}:               1,
		{Incoming, "etl-0", "rwcp-gw", 40000}: 1,
		{Incoming, "etl-1", "rwcp-gw", 9}:     1,
		{Outgoing, "rwcp-1", "etl-0", 25}:     2,
	}
	if !maps.Equal(f.allowed, wantAllowed) || !maps.Equal(f.denied, wantDenied) {
		t.Fatalf("tallies allowed=%v denied=%v\nwant allowed=%v denied=%v", f.allowed, f.denied, wantAllowed, wantDenied)
	}
	if f.AllowedCount() != 4 || f.DeniedCount() != 5 {
		t.Fatalf("counts allowed=%d denied=%d, want 4 and 5", f.AllowedCount(), f.DeniedCount())
	}
}

// TestPermitConnZeroAlloc: a decision already counted once costs no
// allocation to count again, allowed or denied.
func TestPermitConnZeroAlloc(t *testing.T) {
	f := New("rwcp")
	f.AllowIncomingPort(7010, "nxport")
	decide := func() {
		f.PermitConn(Incoming, "outer", "inner", 7010)
		f.PermitConn(Incoming, "evil", "inner", 22)
	}
	decide()
	if avg := testing.AllocsPerRun(1000, decide); avg != 0 {
		t.Errorf("warm PermitConn allocates %.2f objects/op, want 0", avg)
	}
}
