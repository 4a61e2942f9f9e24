package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// buildTree builds a fleet-shaped tree: core, nsites gateways, nhosts hosts
// per site.
func buildTree(t *testing.T, nsites, nhosts int) (*sim.Kernel, *Network) {
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
		for h := 0; h < nhosts; h++ {
			host := gw + "-h" + string(rune('0'+h))
			n.AddHost(host, HostConfig{Site: gw})
			n.Connect(host, gw, lan)
		}
	}
	return k, n
}

// TestRoutingMatchesBruteForce compares the tree router against an
// exhaustive shortest-path search on random small trees and forests: links
// join each node to a random earlier one, in a random direction and order,
// or leave it to start a new component, between which there is no route.
func TestRoutingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		k := sim.New()
		n := New(k)
		nodes := 2 + rng.Intn(11)
		for i := 0; i < nodes; i++ {
			n.AddHost(fmt.Sprintf("h%d", i), HostConfig{})
		}
		adj := make([][]time.Duration, nodes)
		for i := range adj {
			adj[i] = make([]time.Duration, nodes)
		}
		for _, i := range rng.Perm(nodes) {
			if i == 0 || rng.Intn(5) == 0 {
				continue
			}
			j := rng.Intn(i)
			lat := time.Duration(1+rng.Intn(20)) * time.Millisecond
			adj[i][j], adj[j][i] = lat, lat
			a, b := fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j)
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			n.Connect(a, b, LinkConfig{Latency: lat})
		}
		// Brute-force all-pairs shortest latency (Floyd-Warshall).
		const inf = time.Duration(1) << 60
		dist := make([][]time.Duration, nodes)
		for i := range dist {
			dist[i] = make([]time.Duration, nodes)
			for j := range dist[i] {
				switch {
				case i == j:
					dist[i][j] = 0
				case adj[i][j] > 0:
					dist[i][j] = adj[i][j]
				default:
					dist[i][j] = inf
				}
			}
		}
		for via := 0; via < nodes; via++ {
			for i := 0; i < nodes; i++ {
				for j := 0; j < nodes; j++ {
					if dist[i][via]+dist[via][j] < dist[i][j] {
						dist[i][j] = dist[i][via] + dist[via][j]
					}
				}
			}
		}
		for i := 0; i < nodes; i++ {
			for j := 0; j < nodes; j++ {
				if i == j {
					continue
				}
				got, err := n.PathLatency(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j))
				if dist[i][j] == inf {
					if err == nil || !strings.Contains(err.Error(), "no route") {
						t.Fatalf("trial %d: h%d->h%d between components: %v, %v; want no route", trial, i, j, got, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d: no route h%d->h%d, want %v", trial, i, j, dist[i][j])
				}
				if got != dist[i][j] {
					t.Fatalf("trial %d: latency h%d->h%d = %v, want %v", trial, i, j, got, dist[i][j])
				}
			}
		}
		k.Shutdown()
	}
}

// TestRoutingSymmetricAndCacheInvalidation: symmetric links give symmetric
// latencies, and a leaf linked in after a failed lookup invalidates the
// cached absence of a route.
func TestRoutingSymmetricAndCacheInvalidation(t *testing.T) {
	k := sim.New()
	defer k.Shutdown()
	n := New(k)
	n.AddHost("a", HostConfig{})
	n.AddHost("b", HostConfig{})
	n.AddRouter("r", "")
	n.Connect("a", "r", LinkConfig{Latency: 10 * time.Millisecond})
	n.Connect("r", "b", LinkConfig{Latency: 10 * time.Millisecond})
	ab, _ := n.PathLatency("a", "b")
	ba, _ := n.PathLatency("b", "a")
	if ab != ba || ab != 20*time.Millisecond {
		t.Fatalf("asymmetric or wrong: ab=%v ba=%v", ab, ba)
	}
	n.AddHost("c", HostConfig{})
	if _, err := n.PathLatency("a", "c"); err == nil {
		t.Fatal("route to an unlinked leaf")
	}
	// Linking the leaf must replace the cached absence of a route.
	n.Connect("b", "c", LinkConfig{Latency: time.Millisecond})
	ac, err := n.PathLatency("a", "c")
	if err != nil || ac != 21*time.Millisecond {
		t.Fatalf("route cache not invalidated: %v, %v", ac, err)
	}
	if hops, _ := n.Hops("c", "a"); hops != 3 {
		t.Fatalf("Hops(c, a) = %d, want 3", hops)
	}
}

// TestCyclicTopologyRefused: a topology with a cycle — a triangle, a doubled
// link or a loop — has no unique paths, so every lookup and dial fails with
// an error naming the link that closed the cycle, and nothing panics.
func TestCyclicTopologyRefused(t *testing.T) {
	lan := LinkConfig{Latency: time.Millisecond}
	for _, tc := range []struct {
		name  string
		links [][2]string
		want  string
	}{
		{"triangle", [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}, "b>c"},
		{"doubled link", [][2]string{{"a", "b"}, {"b", "c"}, {"a", "b"}}, "a>b"},
		{"loop", [][2]string{{"a", "b"}, {"b", "c"}, {"c", "c"}}, "c>c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			defer k.Shutdown()
			n := New(k)
			for _, h := range []string{"a", "b", "c"} {
				n.AddHost(h, HostConfig{})
			}
			for _, l := range tc.links {
				n.Connect(l[0], l[1], lan)
			}
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "link "+tc.want+" closes a cycle") {
					t.Errorf("%s: %v; want the error naming link %s", what, err, tc.want)
				}
			}
			_, err := n.Resolve("a", "b")
			check("Resolve", err)
			_, err = n.PathLatency("c", "a")
			check("PathLatency", err)
			var dialErr error
			n.Node("a").SpawnOn("dialer", func(env transport.Env) {
				_, dialErr = env.Dial("b:5000")
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			check("Dial", dialErr)
		})
	}
}

// TestSendMessage: datagrams deliver exactly once, at the sum of the path's
// link latencies, and same-node sends deliver after a tick. Unknown nodes
// error.
func TestSendMessage(t *testing.T) {
	k, n := buildTree(t, 2, 2)
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
	// Path: h0 -> gwa -> core -> gwb -> h1 = 100µs + 3ms + 3ms + 100µs.
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
	k, n := buildTree(t, 2, 2)
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
