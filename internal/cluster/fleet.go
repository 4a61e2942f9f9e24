package cluster

import (
	"fmt"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
)

// Fleet topology: the testbed scaled past the paper's 4 sites / 20
// processors toward the ROADMAP's production-scale grid. N sites hang off a
// single core router over WAN-class links; each site is M hosts behind a
// site gateway on LAN-class links. The topology is a tree, as every simnet
// topology is, so an uncached route is a climb of at most four hops to the
// two hosts' common ancestor however many hosts the fleet stamps out.
//
// Fleet links carry control datagrams (dispatch, completions, batched
// heartbeats), so they are configured with unlimited bandwidth: a message
// costs one propagation event per hop and zero serialization events, which
// is what keeps 1M-job runs at ~a dozen kernel events per job.

// FleetCore is the fleet's core router name.
const FleetCore = "fleet-core"

// FleetSite returns site s's name.
func FleetSite(s int) string { return fmt.Sprintf("fs%03d", s) }

// FleetGateway returns site s's gateway router name.
func FleetGateway(s int) string { return fmt.Sprintf("fs%03d-gw", s) }

// FleetHost returns host h of site s.
func FleetHost(s, h int) string { return fmt.Sprintf("fs%03dh%03d", s, h) }

// FleetOptions sizes a fleet topology.
type FleetOptions struct {
	// Sites is the site count (>= 1).
	Sites int
	// HostsPerSite is the per-site host count (>= 1).
	HostsPerSite int
	// CPUsPerHost is each host's slot count (default 2).
	CPUsPerHost int
	// Seed seeds the kernel RNG (0 leaves the kernel self-seeded).
	Seed uint64
	// Obs attaches an observability sink (nil keeps hot paths free).
	Obs *obs.Observer
}

// Fleet is a built fleet topology: one kernel, one network, the core
// router, and the generated site/host names (shared slices — callers must
// not mutate).
type Fleet struct {
	K    *sim.Kernel
	Net  *simnet.Network
	Opts FleetOptions
	// Gateways[s] is site s's gateway name; Hosts[s][h] is host h of site s.
	Gateways []string
	Hosts    [][]string
}

// NewFleet builds an N-site × M-host fleet on a fresh kernel: core router,
// per-site gateways and hosts, and links. Only
// topology is built — no processes are spawned; the fleet engine drives
// everything event-style.
func NewFleet(opts FleetOptions) *Fleet {
	if opts.Sites < 1 || opts.HostsPerSite < 1 {
		panic(fmt.Sprintf("cluster: NewFleet: need >=1 site and host, got %d x %d", opts.Sites, opts.HostsPerSite))
	}
	if opts.CPUsPerHost <= 0 {
		opts.CPUsPerHost = 2
	}
	k := sim.New()
	if opts.Seed != 0 {
		k.Seed(opts.Seed)
	}
	n := simnet.New(k)
	n.Obs = opts.Obs

	n.AddRouter(FleetCore, "")
	wan := simnet.LinkConfig{Latency: WANLatency}     // control plane: unlimited bandwidth
	lan := simnet.LinkConfig{Latency: LANHostLatency} // ditto

	f := &Fleet{
		K: k, Net: n, Opts: opts,
		Gateways: make([]string, opts.Sites),
		Hosts:    make([][]string, opts.Sites),
	}
	for s := 0; s < opts.Sites; s++ {
		site := FleetSite(s)
		gw := FleetGateway(s)
		f.Gateways[s] = gw
		n.AddRouter(gw, site)
		n.Connect(FleetCore, gw, wan)
		hosts := make([]string, opts.HostsPerSite)
		for h := 0; h < opts.HostsPerSite; h++ {
			name := FleetHost(s, h)
			hosts[h] = name
			n.AddHost(name, simnet.HostConfig{Site: site, Speed: 1.0, CPUs: opts.CPUsPerHost})
			n.Connect(name, gw, lan)
		}
		f.Hosts[s] = hosts
	}
	return f
}

// TotalHosts reports sites × hosts-per-site.
func (f *Fleet) TotalHosts() int { return f.Opts.Sites * f.Opts.HostsPerSite }
