// Job submission beyond the firewall: the paper's Figure 2 flow, end to end
// on the simulated testbed.
//
// A client at ETL submits an RSL job to the gatekeeper on rwcp-outer
// (outside the RWCP firewall). The gatekeeper authenticates the client,
// forks an RMF-type job manager, whose Q client asks the resource allocator
// (inside the firewall) for resources and submits the processes to Q
// servers on the COMPaS nodes. Input/output files are staged through GASS.
//
// Run with: go run ./examples/jobsubmit
package main

import (
	"fmt"
	"log"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/cluster"
	"nxcluster/internal/gass"
	"nxcluster/internal/gram"
	"nxcluster/internal/rmf"
	"nxcluster/internal/transport"
)

func main() {
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.K.Shutdown()

	// The paper: "the firewall must be configured to allow communications
	// between the Q client and the resource allocator, and the Q client and
	// the Q server."
	tb.Firewall.AllowIncomingPort(rmf.AllocatorPort, "RMF: Q client -> allocator")
	tb.Firewall.AllowIncomingPort(rmf.QServerPort, "RMF: Q client -> Q servers")

	// Programs available on the COMPaS nodes.
	reg := rmf.NewRegistry()
	reg.Register("wordcount", func(e transport.Env, ctx *rmf.JobContext) error {
		words := 0
		inWord := false
		for _, b := range ctx.Stdin {
			sp := b == ' ' || b == '\n' || b == '\t'
			if !sp && !inWord {
				words++
			}
			inWord = !sp
		}
		fmt.Fprintf(&ctx.Stdout, "%s counted %d words\n", ctx.Resource, words)
		return nil
	})

	// RMF daemons inside the firewall.
	alloc := rmf.NewAllocator()
	tb.Node(cluster.RWCPInner).SpawnDaemonOn("allocator", func(e transport.Env) {
		_ = alloc.Serve(e, rmf.AllocatorPort, nil)
	})
	for i := 0; i < cluster.CompasNodes; i++ {
		host := cluster.CompasNode(i)
		q := rmf.NewQServer(host, "compas", 4, reg)
		tb.Node(host).SpawnDaemonOn("qserver-"+host, func(e transport.Env) {
			e.Sleep(time.Millisecond)
			_ = q.Serve(e, rmf.QServerPort, transport.JoinAddr(cluster.RWCPInner, rmf.AllocatorPort), nil)
		})
	}

	// GASS server at ETL holding the input file and receiving outputs.
	store := gass.NewStore()
	store.Put("/input.txt", []byte("the quick brown fox jumps over the lazy dog"))
	gsrv := gass.NewServer(store)
	tb.Node(cluster.ETLSun).SpawnDaemonOn("gass", func(e transport.Env) {
		_ = gsrv.Serve(e, 7200, nil)
	})
	gassHost := transport.JoinAddr(cluster.ETLSun, 7200)

	// Gatekeeper outside the firewall.
	cred, err := auth.NewCredential("/O=Grid/OU=ETL/CN=researcher")
	if err != nil {
		log.Fatal(err)
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "researcher")
	gk := gram.NewGatekeeper(gram.Config{
		Keyring:       kr,
		Registry:      reg,
		AllocatorAddr: transport.JoinAddr(cluster.RWCPInner, rmf.AllocatorPort),
	})
	gk.SetTrace(func(format string, args ...interface{}) {
		fmt.Printf("  [gatekeeper] "+format+"\n", args...)
	})
	tb.Node(cluster.RWCPOuter).SpawnDaemonOn("gatekeeper", func(e transport.Env) {
		_ = gk.Serve(e, gram.DefaultPort, nil)
	})

	// The client at ETL submits the job.
	rslReq := fmt.Sprintf(
		`&(executable=wordcount)(count=3)(jobmanager=rmf)(cluster=compas)(stdin=%s)(stdout=%s)`,
		gass.URL(gassHost, "/input.txt"), gass.URL(gassHost, "/out/wc"))
	fmt.Printf("submitting RSL:\n  %s\n\n", rslReq)

	tb.Node(cluster.ETLSun).SpawnOn("client", func(e transport.Env) {
		e.Sleep(5 * time.Millisecond)
		gkAddr := transport.JoinAddr(cluster.RWCPOuter, gram.DefaultPort)
		contact, err := gram.Submit(e, gkAddr, cred, rslReq)
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
		fmt.Printf("  [client] job contact: %s\n", contact)
		if err := gram.Wait(e, gkAddr, cred, contact, 10*time.Millisecond, time.Minute); err != nil {
			log.Fatalf("wait: %v", err)
		}
		fmt.Printf("  [client] job done at virtual t=%.3fs\n", e.Now().Seconds())
	})

	if err := tb.K.Run(); err != nil {
		log.Fatalf("simulation: %v", err)
	}

	fmt.Println("\nstaged outputs:")
	for _, p := range store.List("/out") {
		data, _ := store.Get(p)
		fmt.Printf("  %s: %s", p, data)
	}
}
