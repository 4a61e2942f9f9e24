package bench

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/cluster"
	"nxcluster/internal/gram"
	"nxcluster/internal/proxy"
	"nxcluster/internal/rmf"
	"nxcluster/internal/transport"
)

// Figure1 renders the wide-area cluster system overview (paper Figure 1):
// the sites, clusters and networks, plus measured path characteristics of
// the simulated testbed.
func Figure1() (string, error) {
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.K.Shutdown()
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 1. Wide-area cluster system")
	fmt.Fprintln(&b, tb.Topology())
	fmt.Fprintln(&b, "measured paths:")
	for _, pair := range [][2]string{
		{cluster.RWCPSun, cluster.CompasNode(0)},
		{cluster.RWCPSun, cluster.ETLSun},
		{cluster.RWCPSun, cluster.ETLO2K},
	} {
		lat, err := tb.Net.PathLatency(pair[0], pair[1])
		if err != nil {
			return "", err
		}
		bw, err := tb.Net.PathBandwidth(pair[0], pair[1])
		if err != nil {
			return "", err
		}
		hops, err := tb.Net.Hops(pair[0], pair[1])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-10s <-> %-10s  %2d hops, %6.2f ms, %8.1f KB/s bottleneck\n",
			pair[0], pair[1], hops, float64(lat)/float64(time.Millisecond), float64(bw)/1024)
	}
	return b.String(), nil
}

// Figure5 renders the experimental environment (paper Figure 5); the same
// topology as Figure 1 with the proxy daemons and firewall annotated.
func Figure5() (string, error) {
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.K.Shutdown()
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5. Experimental environment")
	fmt.Fprintln(&b, tb.Topology())
	fmt.Fprintf(&b, "outer server control address: %s\n", tb.ProxyCfg.OuterServer)
	fmt.Fprintf(&b, "inner server nxport address:  %s\n", tb.ProxyCfg.InnerServer)
	return b.String(), nil
}

// Figure2 runs one traced job submission through the RMF-type GRAM on the
// simulated testbed and renders the six-step flow of the paper's Figure 2.
func Figure2() (string, error) {
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.K.Shutdown()

	var lines []string
	tracef := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	reg := rmf.NewRegistry()
	reg.Register("app", func(e transport.Env, ctx *rmf.JobContext) error {
		fmt.Fprintf(&ctx.Stdout, "ran on %s", ctx.Resource)
		return nil
	})
	// The firewall must admit the Q client's connections, as the paper
	// requires.
	tb.Firewall.AllowIncomingPort(rmf.AllocatorPort, "RMF: Q client -> allocator")
	tb.Firewall.AllowIncomingPort(rmf.QServerPort, "RMF: Q client -> Q servers")

	alloc := rmf.NewAllocator()
	alloc.SetTrace(tracef)
	tb.Node(cluster.RWCPInner).SpawnDaemonOn("rmf-alloc", func(e transport.Env) {
		_ = alloc.Serve(e, rmf.AllocatorPort, nil)
	})
	for i := 0; i < 2; i++ {
		host := cluster.CompasNode(i)
		q := rmf.NewQServer(host, "compas", 4, reg)
		q.SetTrace(tracef)
		tb.Node(host).SpawnDaemonOn("qserver-"+host, func(e transport.Env) {
			e.Sleep(time.Millisecond)
			_ = q.Serve(e, rmf.QServerPort, transport.JoinAddr(cluster.RWCPInner, rmf.AllocatorPort), nil)
		})
	}

	cred, err := auth.NewCredential("/O=Grid/OU=RWCP/CN=operator")
	if err != nil {
		return "", err
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "operator")
	gk := gram.NewGatekeeper(gram.Config{
		Keyring:       kr,
		Registry:      reg,
		AllocatorAddr: transport.JoinAddr(cluster.RWCPInner, rmf.AllocatorPort),
	})
	gk.SetTrace(tracef)
	tb.Node(cluster.RWCPOuter).SpawnDaemonOn("gatekeeper", func(e transport.Env) {
		_ = gk.Serve(e, gram.DefaultPort, nil)
	})

	var jobErr error
	tb.Node(cluster.ETLSun).SpawnOn("globusrun", func(e transport.Env) {
		e.Sleep(5 * time.Millisecond)
		contact, err := gram.Submit(e, transport.JoinAddr(cluster.RWCPOuter, gram.DefaultPort), cred,
			`&(executable=app)(count=2)(jobmanager=rmf)(cluster=compas)`)
		if err != nil {
			jobErr = err
			return
		}
		jobErr = gram.Wait(e, transport.JoinAddr(cluster.RWCPOuter, gram.DefaultPort), cred, contact,
			10*time.Millisecond, time.Minute)
	})
	if err := tb.K.Run(); err != nil {
		return "", err
	}
	if jobErr != nil {
		return "", jobErr
	}

	var b strings.Builder
	fmt.Fprintln(&b, "Figure 2. The architecture of RMF — traced job submission")
	fmt.Fprintln(&b, "(gatekeeper on rwcp-outer, allocator on rwcp-inner, Q servers on COMPaS nodes)")
	for _, l := range lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String(), nil
}

// Figure3 traces an active open through the proxy (paper Figure 3): a
// firewalled process reaches a remote server via NXProxyConnect.
func Figure3() (string, error) {
	return traceProxy(false)
}

// Figure4 traces a passive open through the proxy (paper Figure 4): a
// firewalled process binds via NXProxyBind and a remote peer connects to
// the advertised outer address.
func Figure4() (string, error) {
	return traceProxy(true)
}

func traceProxy(passive bool) (string, error) {
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.K.Shutdown()
	var lines []string
	tracef := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	tb.Outer.SetTrace(tracef)
	tb.Inner.SetTrace(tracef)

	addrCh := make(chan string, 1)
	var appErr error
	if passive {
		tb.Node(cluster.RWCPSun).SpawnDaemonOn("pa", func(e transport.Env) {
			e.Sleep(time.Millisecond)
			l, err := proxy.NXProxyBind(e, tb.ProxyCfg)
			if err != nil {
				appErr = err
				return
			}
			lines = append(lines, fmt.Sprintf("pa: NXProxyBind -> advertised %s (bind id %s)", l.Addr(), l.BindID()))
			addrCh <- l.Addr()
			c, err := proxy.NXProxyAccept(e, l)
			if err != nil {
				appErr = err
				return
			}
			lines = append(lines, "pa: NXProxyAccept completed; link established")
			buf := make([]byte, 2)
			if _, err := c.Read(e, buf); err == nil {
				_, _ = c.Write(e, buf)
			}
		})
		tb.Node(cluster.ETLSun).SpawnOn("pb", func(e transport.Env) {
			for len(addrCh) == 0 {
				e.Sleep(time.Millisecond)
			}
			addr := <-addrCh
			lines = append(lines, fmt.Sprintf("pb: connect() to advertised address %s", addr))
			c, err := e.Dial(addr)
			if err != nil {
				appErr = err
				return
			}
			_, _ = c.Write(e, []byte("42"))
			buf := make([]byte, 2)
			if _, err := c.Read(e, buf); err != nil {
				appErr = err
			}
		})
	} else {
		tb.Node(cluster.ETLSun).SpawnDaemonOn("pb", func(e transport.Env) {
			l, err := e.Listen(6000)
			if err != nil {
				appErr = err
				return
			}
			c, err := l.Accept(e)
			if err != nil {
				return
			}
			lines = append(lines, "pb: accept() completed; link established")
			buf := make([]byte, 2)
			if _, err := c.Read(e, buf); err == nil {
				_, _ = c.Write(e, buf)
			}
		})
		tb.Node(cluster.RWCPSun).SpawnOn("pa", func(e transport.Env) {
			e.Sleep(time.Millisecond)
			lines = append(lines, "pa: NXProxyConnect(etl-sun:6000) instead of connect()")
			c, err := proxy.NXProxyConnect(e, tb.ProxyCfg, transport.JoinAddr(cluster.ETLSun, 6000))
			if err != nil {
				appErr = err
				return
			}
			_, _ = c.Write(e, []byte("42"))
			buf := make([]byte, 2)
			if _, err := c.Read(e, buf); err != nil {
				appErr = err
			}
			lines = append(lines, "pa: round trip through relay complete")
		})
	}
	if err := tb.K.Run(); err != nil {
		return "", err
	}
	if appErr != nil {
		return "", appErr
	}
	var b strings.Builder
	if passive {
		fmt.Fprintln(&b, "Figure 4. Communication mechanism via the Nexus Proxy (passive connection)")
	} else {
		fmt.Fprintln(&b, "Figure 3. Communication mechanism via the Nexus Proxy (active connection)")
	}
	for _, l := range lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String(), nil
}
