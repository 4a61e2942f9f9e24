// Command nxproxy-outer runs the Nexus Proxy outer server on real TCP: the
// relay daemon deployed just outside a site firewall. Processes inside the
// site send it connect and bind requests; remote peers connect to the
// public ports it binds on their behalf.
//
// Usage:
//
//	nxproxy-outer -port 7000 -inner host:7010 [-buf 4096]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

func main() {
	port := flag.Int("port", 7000, "control port to listen on")
	inner := flag.String("inner", "", "inner server address host:nxport (required)")
	buf := flag.Int("buf", 4096, "relay read buffer in bytes; on Linux a relay direction whose read fills it moves the rest in the kernel (splice)")
	verbose := flag.Bool("v", false, "trace relay activity")
	flag.Parse()
	if *inner == "" {
		fmt.Fprintln(os.Stderr, "nxproxy-outer: -inner is required")
		flag.Usage()
		os.Exit(2)
	}

	env := transport.NewTCPEnv("localhost")
	srv := proxy.NewOuterServer(*inner, proxy.RelayConfig{BufBytes: *buf})
	if *verbose {
		srv.SetTrace(func(format string, args ...interface{}) {
			log.Printf(format, args...)
		})
	}
	err := srv.Serve(env, *port, func(addr string) {
		log.Printf("nxproxy-outer: listening on %s, splicing via inner server %s", addr, *inner)
	})
	if err != nil {
		log.Fatalf("nxproxy-outer: %v", err)
	}
}
