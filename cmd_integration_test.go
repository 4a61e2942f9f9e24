package repro

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles the daemons once per test binary run.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

// startDaemon launches a binary and kills it at test end.
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		if t.Failed() {
			t.Logf("%s output:\n%s", filepath.Base(bin), buf.String())
		}
	})
	return cmd
}

// waitPort polls until a TCP port accepts connections.
func waitPort(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("port %s never came up", addr)
}

// freePorts reserves n distinct free TCP ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var ls []net.Listener
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range ls {
		_ = l.Close()
	}
	return ports
}

// TestBinariesProxyAndBench runs the real nxproxy daemons plus nxbench as
// separate OS processes: the paper's deployment, scaled to loopback.
func TestBinariesProxyAndBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bins := buildBinaries(t, "nxproxy-inner", "nxproxy-outer", "nxbench")
	ports := freePorts(t, 3)
	nxport, outerPort, benchPort := ports[0], ports[1], ports[2]

	startDaemon(t, bins["nxproxy-inner"], "-port", fmt.Sprint(nxport))
	waitPort(t, fmt.Sprintf("127.0.0.1:%d", nxport))
	startDaemon(t, bins["nxproxy-outer"], "-port", fmt.Sprint(outerPort),
		"-inner", fmt.Sprintf("localhost:%d", nxport))
	waitPort(t, fmt.Sprintf("127.0.0.1:%d", outerPort))
	startDaemon(t, bins["nxbench"], "-serve", "-port", fmt.Sprint(benchPort))
	waitPort(t, fmt.Sprintf("127.0.0.1:%d", benchPort))

	run := func(args ...string) string {
		cmd := exec.Command(bins["nxbench"], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("nxbench %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	direct := run("-target", fmt.Sprintf("localhost:%d", benchPort), "-rounds", "4")
	if !strings.Contains(direct, "direct") || !strings.Contains(direct, "latency") {
		t.Fatalf("direct output:\n%s", direct)
	}
	viaProxy := run("-target", fmt.Sprintf("localhost:%d", benchPort), "-rounds", "4",
		"-outer", fmt.Sprintf("localhost:%d", outerPort),
		"-inner", fmt.Sprintf("localhost:%d", nxport))
	if !strings.Contains(viaProxy, "indirect (via Nexus Proxy)") {
		t.Fatalf("proxy output:\n%s", viaProxy)
	}
	if !strings.Contains(viaProxy, "bandwidth") {
		t.Fatalf("proxy output missing bandwidth:\n%s", viaProxy)
	}
}

// TestBinariesGatekeeperRMF runs allocator + qserver + gatekeeper + nxrun as
// OS processes and submits a job through the whole chain.
func TestBinariesGatekeeperRMF(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bins := buildBinaries(t, "rmf-allocator", "rmf-qserver", "nxgatekeeper", "nxrun")
	ports := freePorts(t, 3)
	allocPort, qPort, gkPort := ports[0], ports[1], ports[2]
	const secret = "00112233445566778899aabbccddeeff"

	startDaemon(t, bins["rmf-allocator"], "-port", fmt.Sprint(allocPort))
	waitPort(t, fmt.Sprintf("127.0.0.1:%d", allocPort))
	startDaemon(t, bins["rmf-qserver"], "-port", fmt.Sprint(qPort),
		"-name", "node0", "-cluster", "demo", "-cpus", "2",
		"-allocator", fmt.Sprintf("localhost:%d", allocPort))
	waitPort(t, fmt.Sprintf("127.0.0.1:%d", qPort))
	startDaemon(t, bins["nxgatekeeper"], "-port", fmt.Sprint(gkPort),
		"-secret", secret, "-allocator", fmt.Sprintf("localhost:%d", allocPort))
	waitPort(t, fmt.Sprintf("127.0.0.1:%d", gkPort))

	cmd := exec.Command(bins["nxrun"],
		"-gatekeeper", fmt.Sprintf("localhost:%d", gkPort),
		"-secret", secret,
		`&(executable=hostname)(count=2)(jobmanager=rmf)`)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("nxrun: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "job completed") {
		t.Fatalf("nxrun output:\n%s", out)
	}

	// A wrong secret must be rejected.
	bad := exec.Command(bins["nxrun"],
		"-gatekeeper", fmt.Sprintf("localhost:%d", gkPort),
		"-secret", "deadbeef",
		`&(executable=hostname)`)
	if out, err := bad.CombinedOutput(); err == nil {
		t.Fatalf("nxrun with wrong secret succeeded:\n%s", out)
	}
}

// TestExamplesRun executes every example program end to end; each must exit
// zero. This is the "does the README actually work" check.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs example binaries")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no example directories found: %v", err)
	}
	for _, dir := range dirs {
		if !dir.IsDir() {
			continue
		}
		name := dir.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Env = os.Environ()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("example %s produced no output", name)
			}
		})
	}
}

// TestBinarySimulatorRunNamesTheFile: whichever stage refuses a scenario —
// parse, validate or run — `simulator run` says which file it was.
func TestBinarySimulatorRunNamesTheFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	bin := buildBinaries(t, "simulator")["simulator"]
	const chaos = "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\n"
	for _, tc := range []struct{ stage, doc, wantErr string }{
		{"parse", chaos + "topology:\n  seed: -1\n", "scenario: topology.seed must be >= 0, got -1"},
		{"validate", chaos + "faults:\n  - crash: {host: compas99, from: 1s}\n", `"compas99" is not a host`},
	} {
		path := filepath.Join(t.TempDir(), tc.stage+".yaml")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "run", path)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("%s: simulator run exited 0", tc.stage)
		}
		got := stderr.String()
		if !strings.HasPrefix(got, "simulator run: "+path+": ") || !strings.Contains(got, tc.wantErr) {
			t.Errorf("%s: stderr %q, want \"simulator run: %s: ...%s\"", tc.stage, got, path, tc.wantErr)
		}
	}
}
