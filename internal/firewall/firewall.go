// Package firewall models the packet-filtering gateways the paper's system
// must traverse. A firewall separates a site's inside from the Internet and
// filters connection attempts by direction and destination port.
//
// The paper identifies two rule-set styles and one "typical" combination:
//
//   - allow-based: all ports open by default, specific ports closed;
//   - deny-based: all ports closed by default, specific ports opened;
//   - typical site policy: deny-based for incoming packets, allow-based for
//     outgoing packets.
//
// That typical policy is what breaks Globus 1.0 (Nexus listens on dynamic
// ports, so inbound connections are denied) and what the Nexus Proxy works
// around by pre-opening a single nxport from the outer server to the inner
// server.
package firewall

import (
	"fmt"
	"strings"
)

// Direction of a connection attempt relative to the protected site.
type Direction int

const (
	// Incoming means the connection originates outside the site and targets
	// a host inside it.
	Incoming Direction = iota
	// Outgoing means the connection originates inside the site and targets
	// a host outside it.
	Outgoing
)

// String returns "incoming" or "outgoing".
func (d Direction) String() string {
	if d == Incoming {
		return "incoming"
	}
	return "outgoing"
}

// Policy is the verdict applied to a matched or unmatched packet.
type Policy int

const (
	// Deny rejects the connection.
	Deny Policy = iota
	// Allow permits the connection.
	Allow
)

// String returns "deny" or "allow".
func (p Policy) String() string {
	if p == Allow {
		return "allow"
	}
	return "deny"
}

// Rule matches a destination-port range and applies a policy. A zero-value
// port range (0,0) matches every port.
type Rule struct {
	// PortMin and PortMax bound the matched destination ports, inclusive.
	PortMin, PortMax int
	// Policy applied when the rule matches.
	Policy Policy
	// Comment is carried for audit rendering.
	Comment string
}

// Matches reports whether the rule covers dstPort.
func (r Rule) Matches(dstPort int) bool {
	if r.PortMin == 0 && r.PortMax == 0 {
		return true
	}
	return dstPort >= r.PortMin && dstPort <= r.PortMax
}

// RuleSet is an ordered rule list with a default policy; the first matching
// rule wins.
type RuleSet struct {
	// Default applies when no rule matches.
	Default Policy
	// Rules are evaluated in order.
	Rules []Rule
}

// Verdict returns the policy for a connection to dstPort.
func (rs RuleSet) Verdict(dstPort int) Policy {
	for _, r := range rs.Rules {
		if r.Matches(dstPort) {
			return r.Policy
		}
	}
	return rs.Default
}

// Firewall is a site gateway's filter configuration plus counters. The
// zero value permits everything (both defaults Allow would require explicit
// construction; use New or a preset instead).
type Firewall struct {
	// Site is the protected site's name, used in error messages.
	Site string
	// Incoming filters connections from outside targeting inside hosts.
	Incoming RuleSet
	// Outgoing filters connections from inside targeting outside hosts.
	Outgoing RuleSet

	// stats
	allowed map[decision]int
	denied  map[decision]int
}

// decision is one counted connection attempt. It is a comparable struct, so
// counting one formats nothing.
type decision struct {
	dir      Direction
	src, dst string
	port     int
}

// New creates a firewall for site with the paper's typical configuration:
// deny-based incoming, allow-based outgoing.
func New(site string) *Firewall {
	return &Firewall{
		Site:     site,
		Incoming: RuleSet{Default: Deny},
		Outgoing: RuleSet{Default: Allow},
	}
}

// AllowIncomingPort opens a single inbound destination port (the nxport
// mechanism: the only port that must be opened in advance for the proxy).
func (f *Firewall) AllowIncomingPort(port int, comment string) {
	f.Incoming.Rules = append(f.Incoming.Rules, Rule{PortMin: port, PortMax: port, Policy: Allow, Comment: comment})
}

// AllowIncomingRange opens an inbound destination port range. This mirrors
// the Globus 1.1 TCP_MIN_PORT/TCP_MAX_PORT escape hatch the paper argues
// degrades a deny-based firewall into an allow-based one.
func (f *Firewall) AllowIncomingRange(min, max int, comment string) {
	f.Incoming.Rules = append(f.Incoming.Rules, Rule{PortMin: min, PortMax: max, Policy: Allow, Comment: comment})
}

// PermitConn decides a connection attempt crossing the firewall in the given
// direction toward dstPort, recording the decision for audit. src and dst
// name the endpoints for counters only; filtering is by direction and port,
// as in the paper's model.
func (f *Firewall) PermitConn(dir Direction, src, dst string, dstPort int) bool {
	var verdict Policy
	switch dir {
	case Incoming:
		verdict = f.Incoming.Verdict(dstPort)
	default:
		verdict = f.Outgoing.Verdict(dstPort)
	}
	key := decision{dir, src, dst, dstPort}
	if verdict == Allow {
		if f.allowed == nil {
			f.allowed = make(map[decision]int)
		}
		f.allowed[key]++
		return true
	}
	if f.denied == nil {
		f.denied = make(map[decision]int)
	}
	f.denied[key]++
	return false
}

// DeniedCount returns the total number of denied connection attempts.
func (f *Firewall) DeniedCount() int {
	n := 0
	for _, c := range f.denied {
		n += c
	}
	return n
}

// AllowedCount returns the total number of permitted connection attempts.
func (f *Firewall) AllowedCount() int {
	n := 0
	for _, c := range f.allowed {
		n += c
	}
	return n
}

// Describe renders the configuration in a human-readable form.
func (f *Firewall) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "firewall %s:\n", f.Site)
	fmt.Fprintf(&b, "  incoming: default %s\n", f.Incoming.Default)
	for _, r := range f.Incoming.Rules {
		fmt.Fprintf(&b, "    %s ports %d-%d  # %s\n", r.Policy, r.PortMin, r.PortMax, r.Comment)
	}
	fmt.Fprintf(&b, "  outgoing: default %s\n", f.Outgoing.Default)
	for _, r := range f.Outgoing.Rules {
		fmt.Fprintf(&b, "    %s ports %d-%d  # %s\n", r.Policy, r.PortMin, r.PortMax, r.Comment)
	}
	return b.String()
}

// Open is a firewall-shaped value that permits everything; used for sites
// without a firewall (like ETL's public hosts in the paper's testbed).
func Open(site string) *Firewall {
	return &Firewall{
		Site:     site,
		Incoming: RuleSet{Default: Allow},
		Outgoing: RuleSet{Default: Allow},
	}
}
