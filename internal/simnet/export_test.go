package simnet

import (
	"fmt"
	"time"
)

// Crashed reports whether the host is currently down.
func (nd *Node) Crashed() bool { return nd.crashed }

// LinkDegraded reports the a->b direction's current extra latency and loss.
func (n *Network) LinkDegraded(a, b string) (time.Duration, float64) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return 0, 0
	}
	for _, ld := range na.links {
		if ld.to == nb {
			return ld.extraLat, ld.extraLoss
		}
	}
	return 0, 0
}

// LinkDown reports whether the a->b link is out of service.
func (n *Network) LinkDown(a, b string) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return false
	}
	for _, ld := range na.links {
		if ld.to == nb {
			return ld.down
		}
	}
	return false
}

// Utilization reports the a->b link's busy fraction of the elapsed virtual
// time (0 when no time has passed).
func (n *Network) Utilization(a, b string) (float64, error) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return 0, fmt.Errorf("simnet: unknown node in %q -> %q", a, b)
	}
	for _, ld := range na.links {
		if ld.to == nb {
			now := n.K.Now()
			if now == 0 {
				return 0, nil
			}
			return float64(ld.busy) / float64(now), nil
		}
	}
	return 0, fmt.Errorf("simnet: no link %q -> %q", a, b)
}
