// Command nxproxy-inner runs the Nexus Proxy inner server on real TCP: the
// relay daemon inside a site firewall, listening on the single pre-opened
// nxport for splice requests from the outer server and completing the chain
// toward bound clients on the inside network.
//
// Usage:
//
//	nxproxy-inner -port 7010 [-buf 4096]
package main

import (
	"flag"
	"log"

	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

func main() {
	port := flag.Int("port", 7010, "nxport to listen on (the firewall's one opened inbound port)")
	buf := flag.Int("buf", 4096, "relay read buffer in bytes; on Linux a relay direction whose read fills it moves the rest in the kernel (splice)")
	verbose := flag.Bool("v", false, "trace relay activity")
	flag.Parse()

	env := transport.NewTCPEnv("localhost")
	srv := proxy.NewInnerServer(proxy.RelayConfig{BufBytes: *buf})
	if *verbose {
		srv.SetTrace(func(format string, args ...interface{}) {
			log.Printf(format, args...)
		})
	}
	err := srv.Serve(env, *port, func(addr string) {
		log.Printf("nxproxy-inner: listening on nxport %s", addr)
	})
	if err != nil {
		log.Fatalf("nxproxy-inner: %v", err)
	}
}
