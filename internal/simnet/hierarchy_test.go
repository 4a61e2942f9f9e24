package simnet

import (
	"testing"
	"time"

	"nxcluster/internal/sim"
)

// buildTree builds a fleet-shaped tree: core, nsites gateways, nhosts hosts
// per site. withParents additionally registers the routing hierarchy.
func buildTree(t *testing.T, nsites, nhosts int, withParents bool) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.New()
	n := New(k)
	n.AddRouter("core", "")
	wan := LinkConfig{Latency: 3 * time.Millisecond}
	lan := LinkConfig{Latency: 100 * time.Microsecond}
	for s := 0; s < nsites; s++ {
		gw := "gw" + string(rune('a'+s))
		n.AddRouter(gw, gw)
		n.Connect("core", gw, wan)
		if withParents {
			n.SetParent(gw, "core")
		}
		for h := 0; h < nhosts; h++ {
			host := gw + "-h" + string(rune('0'+h))
			n.AddHost(host, HostConfig{Site: gw})
			n.Connect(host, gw, lan)
			if withParents {
				n.SetParent(host, gw)
			}
		}
	}
	return k, n
}

// TestHierarchyMatchesDijkstra proves the LCA-composed paths are identical
// to Dijkstra's on tree topologies: same hop counts and same latencies for
// every representative pair shape (intra-site, cross-site, host-to-gateway,
// host-to-core, and the reverse directions).
func TestHierarchyMatchesDijkstra(t *testing.T) {
	_, flat := buildTree(t, 3, 4, false)
	_, hier := buildTree(t, 3, 4, true)
	pairs := [][2]string{
		{"gwa-h0", "gwa-h1"}, // intra-site
		{"gwa-h0", "gwb-h3"}, // cross-site
		{"gwa-h2", "gwa"},    // host -> own gateway
		{"gwa-h2", "core"},   // host -> core (ancestor)
		{"core", "gwc-h1"},   // core -> host (descendant)
		{"gwb", "gwc"},       // gateway -> gateway
		{"gwc-h3", "gwa-h0"}, // reverse cross-site
	}
	for _, p := range pairs {
		fh, err1 := flat.Hops(p[0], p[1])
		hh, err2 := hier.Hops(p[0], p[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("Hops(%s, %s): %v / %v", p[0], p[1], err1, err2)
		}
		if fh != hh {
			t.Errorf("Hops(%s, %s): dijkstra %d, hierarchical %d", p[0], p[1], fh, hh)
		}
		fl, _ := flat.PathLatency(p[0], p[1])
		hl, _ := hier.PathLatency(p[0], p[1])
		if fl != hl {
			t.Errorf("PathLatency(%s, %s): dijkstra %v, hierarchical %v", p[0], p[1], fl, hl)
		}
	}
}

// TestHierarchyFallback: nodes outside the hierarchy still route via
// Dijkstra even on a network where other nodes have parents.
func TestHierarchyFallback(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddRouter("core", "")
	n.AddRouter("gw", "s")
	n.AddHost("in-tree", HostConfig{Site: "s"})
	n.AddHost("outsider", HostConfig{})
	n.Connect("core", "gw", LinkConfig{Latency: time.Millisecond})
	n.Connect("in-tree", "gw", LinkConfig{Latency: time.Millisecond})
	n.Connect("outsider", "core", LinkConfig{Latency: time.Millisecond})
	n.SetParent("gw", "core")
	n.SetParent("in-tree", "gw")
	// outsider has no parent; its chain ends at itself, the in-tree chain
	// ends at core — no common ancestor, so Dijkstra answers.
	hops, err := n.Hops("outsider", "in-tree")
	if err != nil || hops != 3 {
		t.Fatalf("Hops(outsider, in-tree) = %d, %v; want 3, nil", hops, err)
	}
	lat, _ := n.PathLatency("outsider", "in-tree")
	if lat != 3*time.Millisecond {
		t.Fatalf("PathLatency = %v, want 3ms", lat)
	}
}

// TestSendMessage: datagrams deliver exactly once, at the path's latency
// (plus one scheduling nanosecond per hop), and same-node sends deliver
// after a tick. Unknown nodes error.
func TestSendMessage(t *testing.T) {
	k, n := buildTree(t, 2, 2, true)
	var deliveredAt time.Duration
	var count int
	k.After(0, func() {
		if err := n.SendMessage("gwa-h0", "gwb-h1", 256, func() {
			deliveredAt = k.Now()
			count++
		}); err != nil {
			t.Errorf("SendMessage: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Path: h0 -> gwa -> core -> gwb -> h1 = 100µs + 3ms + 3ms + 100µs,
	// plus 1ns Dijkstra tiebreak per hop is not charged to delivery (that
	// is route-cost only), so expect the raw latency sum.
	want := 2*(100*time.Microsecond) + 2*(3*time.Millisecond)
	if count != 1 || deliveredAt != want {
		t.Fatalf("delivered %d times at %v; want once at %v", count, deliveredAt, want)
	}

	if err := n.SendMessage("gwa-h0", "nope", 1, func() {}); err == nil {
		t.Fatal("SendMessage to unknown node did not error")
	}

	// Same-node send: delivers on a later tick, still exactly once.
	k2 := sim.New()
	n2 := New(k2)
	n2.AddHost("solo", HostConfig{})
	fired := 0
	k2.After(0, func() {
		if err := n2.SendMessage("solo", "solo", 1, func() { fired++ }); err != nil {
			t.Errorf("same-node SendMessage: %v", err)
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("same-node delivery fired %d times, want 1", fired)
	}
}

// TestSendMessageZeroAlloc: once the route cache is warm, a control
// datagram costs no heap allocations — pointer-keyed route lookup, pooled
// transfer records, pooled kernel events — whether it is sent by name or on
// a held Path. This is the fleet data plane's per-job budget, pinned like the
// kernel-step alloc tests.
func TestSendMessageZeroAlloc(t *testing.T) {
	k, n := buildTree(t, 2, 2, true)
	deliver := func() {}
	p, err := n.Resolve("gwa-h0", "gwb-h1")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	for _, row := range []struct {
		name string
		send func()
	}{
		{"by name", func() {
			if err := n.SendMessage("gwa-h0", "gwb-h1", 256, deliver); err != nil {
				t.Fatalf("SendMessage: %v", err)
			}
		}},
		{"on path", func() { n.SendOn(p, 256, deliver) }},
	} {
		run := func() {
			row.send()
			if err := k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		run() // warm route cache and pools
		if avg := testing.AllocsPerRun(50, run); avg != 0 {
			t.Errorf("%s: warm send allocates %.1f allocs/run, want 0", row.name, avg)
		}
	}
}

// TestSetParentValidation: unknown nodes and self-parents panic loudly at
// build time instead of corrupting routing later.
func TestSetParentValidation(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("a", HostConfig{})
	for _, tc := range [][2]string{{"a", "ghost"}, {"ghost", "a"}, {"a", "a"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetParent(%q, %q) did not panic", tc[0], tc[1])
				}
			}()
			n.SetParent(tc[0], tc[1])
		}()
	}
}
