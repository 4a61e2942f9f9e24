package simnet

import "fmt"

// Hierarchical site routing.
//
// The Dijkstra router is exact but global: every uncached (src, dst) pair
// costs a scan of the whole node set, which melts once a fleet topology
// stamps out tens of thousands of hosts. Fleet topologies are trees —
// host -> site gateway -> core — so paths can instead be composed by walking
// parent pointers: climb from both endpoints to their lowest common
// ancestor and join the two chains. That is O(depth) per uncached pair,
// independent of host count, and on a tree it returns exactly the path
// Dijkstra would (the tree path is the only path).
//
// The hierarchy is opt-in per node via SetParent. Nodes without parent
// chains — every topology built before this existed — fall through to
// Dijkstra unchanged, and composed paths land in the same route cache, so
// per-message cost after warmup is identical either way.

// maxHierDepth bounds parent-chain walks, guarding against cycles created
// by misconfigured SetParent calls.
const maxHierDepth = 64

// SetParent declares parent as child's uplink in a tree-shaped (hierarchical)
// topology: route lookups between nodes with parent chains are composed by
// lowest-common-ancestor walk instead of Dijkstra. The nodes must already be
// connected by a direct link by the time traffic flows; composition falls
// back to Dijkstra for any pair whose chains do not join or whose chain
// links are missing.
func (n *Network) SetParent(child, parent string) {
	c, p := n.nodes[child], n.nodes[parent]
	if c == nil || p == nil {
		panic(fmt.Sprintf("simnet: SetParent(%q, %q): unknown node", child, parent))
	}
	if c == p {
		panic(fmt.Sprintf("simnet: SetParent(%q, %q): node cannot be its own parent", child, parent))
	}
	c.parent = p
	n.routes = make(map[routeKey][]*linkDir) // invalidate cache
}

// hierPath composes the tree path from src to dst via their lowest common
// ancestor, or returns nil when the hierarchy cannot answer (no parent
// chains, chains that never meet, or a missing direct link between adjacent
// chain nodes) — the caller then falls back to Dijkstra.
func (n *Network) hierPath(src, dst *Node) []*linkDir {
	if src.parent == nil && dst.parent == nil {
		return nil
	}
	up := ancestry(src)
	down := ancestry(dst)
	if up == nil || down == nil {
		return nil
	}
	// Find the lowest common ancestor: the first node of src's chain that
	// appears anywhere in dst's chain. Chains are maxHierDepth short, so the
	// quadratic scan is cheap and allocation-light.
	ui, di := -1, -1
	for i, a := range up {
		for j, b := range down {
			if a == b {
				ui, di = i, j
				break
			}
		}
		if ui >= 0 {
			break
		}
	}
	if ui < 0 {
		return nil
	}
	// Ascend src -> LCA, then descend LCA -> dst.
	path := make([]*linkDir, 0, ui+di)
	for i := 0; i < ui; i++ {
		ld := directLink(up[i], up[i+1])
		if ld == nil {
			return nil
		}
		path = append(path, ld)
	}
	for j := di; j > 0; j-- {
		ld := directLink(down[j], down[j-1])
		if ld == nil {
			return nil
		}
		path = append(path, ld)
	}
	return path
}

// ancestry returns the chain [node, parent, grandparent, ...] up to the
// root, or nil when a cycle exceeds maxHierDepth.
func ancestry(nd *Node) []*Node {
	chain := make([]*Node, 0, 4)
	for cur := nd; cur != nil; cur = cur.parent {
		if len(chain) >= maxHierDepth {
			return nil
		}
		chain = append(chain, cur)
	}
	return chain
}

// directLink returns the directed link from a to b, or nil when the nodes
// are not directly connected.
func directLink(a, b *Node) *linkDir {
	for _, ld := range a.links {
		if ld.to == b {
			return ld
		}
	}
	return nil
}

// SendMessage delivers a connection-less control datagram of size bytes from
// src to dst: it traverses the routed path hop by hop (each hop costs the
// link's serialization and propagation exactly like a stream segment) and
// runs deliver at the final node. There is no connection handshake and —
// unlike Dial — no firewall check: datagrams model intra-fleet control
// traffic (dispatch, completions, heartbeats) between components that are
// already mutually trusted, not new inbound connections. Must be called
// from kernel or process context. Same-node sends deliver after a
// scheduling tick.
func (n *Network) SendMessage(src, dst string, size int, deliver func()) error {
	a, b := n.nodes[src], n.nodes[dst]
	if a == nil || b == nil {
		return fmt.Errorf("simnet: SendMessage: unknown node in %q -> %q", src, dst)
	}
	path := n.route(a, b)
	if path == nil {
		return fmt.Errorf("simnet: SendMessage: no route %q -> %q", src, dst)
	}
	n.send(path, size, deliver)
	return nil
}
