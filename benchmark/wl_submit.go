package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/bench"
	"nxcluster/internal/gass"
	"nxcluster/internal/gram"
	"nxcluster/internal/mds"
	"nxcluster/internal/programs"
	"nxcluster/internal/rmf"
	"nxcluster/internal/rsl"
	"nxcluster/internal/transport"
)

// submitTCP is the control plane of the paper's Figure 2 on loopback
// sockets, all daemons in this process: an RMF allocator, four Q servers,
// 1,020 further resource names registered onto those four addresses (1,024
// candidates, a NorduGrid-size grid), a GRAM gatekeeper with an RMF job
// manager, and a GASS server holding one 4 KiB stdin file. Two closed-loop
// clients each submit a fixed number of jobs; a job is gram.Submit followed
// by authenticated gram.Status calls back to back until the job is done,
// which is what gram.Wait does with a 1 ns poll, written out so that each
// call can be timed and counted. Three quarters of the jobs are two-process
// hostname jobs and a quarter one-process echo jobs with GASS stage-in, in
// an order shuffled by the seed. It is not half and half because the two kinds are two
// modes (an echo job is rarely done when its job manager first asks, and
// the job manager then sleeps 10 ms): at an even split the median job
// would sit on the boundary between the modes and jump with the seed.
type submitTCP struct {
	cfg     runConfig
	perUser int
	mix     []bool // true = echo with stdin, per job index
	stdin   []byte

	env      *transport.TCPEnv
	alloc    *rmf.Allocator
	qservers []*rmf.QServer
	qaddrs   []string
	gk       *gram.Gatekeeper
	gkAddr   string
	files    *gass.Server
	cred     auth.Credential
	rsls     [2]string
}

const (
	submitClients   = 2
	submitResources = 1024
	stdinPath       = "/in/stdin.txt"
)

func submitDef() workloadDef {
	return workloadDef{
		name:      "submit-tcp",
		workAlias: "jobs_per_s", opAlias: "job_p50_ms",
		work:     "jobs completed (gram.Submit to state done), both clients",
		op:       "one job: gram.Submit call to gram.Status reporting done",
		loopback: true,
		make: func(cfg runConfig) (workload, error) {
			w := &submitTCP{cfg: cfg, perUser: scaled(cfg, 600, 20)}
			// Printable stdin, so the echo program's output can be compared.
			w.stdin = seededBytes(cfg.seed, 4096)
			for i, b := range w.stdin {
				w.stdin[i] = 'a' + b%26
			}
			// Exactly a quarter of each client's jobs are echo jobs, in an
			// order shuffled by the seed: the seed moves which jobs wait for
			// stage-in, not how many.
			w.mix = make([]bool, submitClients*w.perUser)
			draw := seededBytes(cfg.seed+1, 2*len(w.mix))
			for c := 0; c < submitClients; c++ {
				mine := w.mix[c*w.perUser : (c+1)*w.perUser]
				for i := range mine {
					mine[i] = i < w.perUser/4
				}
				for i := len(mine) - 1; i > 0; i-- {
					k := c*w.perUser + i
					j := (int(draw[2*k])<<8 | int(draw[2*k+1])) % (i + 1)
					mine[i], mine[j] = mine[j], mine[i]
				}
			}
			return w, nil
		},
		probes: []probe{
			{"rsl.parse", probeRSL},
			{"auth.handshake", probeAuth},
			{"gram.figure2", probeFigure2},
			{"rmf.allocate", probeAllocate},
			{"rmf.qserver", probeQServer},
			{"mds.client", probeMDSClient},
			{"gass.fetch", probeGASS},
			{"nexus.rsr_tcp", probeNexusRSRTCP},
			{"nexus.buffer", probeNexusBuffer},
		},
	}
}

// setup starts the daemons, registers the grid, and warms the path with a
// twentieth of the script in each job kind; one echo job stages its output back out so its bytes
// can be compared with the stdin file.
func (w *submitTCP) setup(p *pass) error {
	w.env = transport.NewTCPEnv("localhost")
	w.alloc = rmf.NewAllocator()
	allocAddr, err := serveOn(w.env, "rmf-allocator", func(e transport.Env, ready func(string)) error {
		return w.alloc.Serve(e, 0, ready)
	})
	if err != nil {
		return err
	}
	w.qservers, w.qaddrs = nil, nil
	for i := 0; i < 4; i++ {
		q := rmf.NewQServer(fmt.Sprintf("node%04d", i), "default", 2, programs.Demo())
		addr, err := serveOn(w.env, "rmf-qserver", func(e transport.Env, ready func(string)) error {
			return q.Serve(e, 0, allocAddr, ready)
		})
		if err != nil {
			return err
		}
		w.qservers, w.qaddrs = append(w.qservers, q), append(w.qaddrs, addr)
	}
	for i := 4; i < submitResources; i++ {
		w.alloc.Register(fmt.Sprintf("node%04d", i), w.qaddrs[i%4], "default", 2)
	}
	if got := len(w.alloc.Resources()); got != submitResources {
		return fmt.Errorf("allocator holds %d resources, want %d", got, submitResources)
	}

	store := gass.NewStore()
	if err := store.Put(stdinPath, w.stdin); err != nil {
		return err
	}
	w.files = gass.NewServer(store)
	fileAddr, err := serveOn(w.env, "gass", func(e transport.Env, ready func(string)) error {
		return w.files.Serve(e, 0, ready)
	})
	if err != nil {
		return err
	}
	stdinURL := gass.URL(fileAddr, stdinPath)

	w.cred = auth.Credential{Subject: "/O=Grid/CN=benchmark", Key: seededBytes(w.cfg.seed+2, 32)}
	kr := auth.NewKeyring()
	kr.Grant(w.cred, "bench")
	w.gk = gram.NewGatekeeper(gram.Config{Keyring: kr, Registry: programs.Demo(), AllocatorAddr: allocAddr})
	w.gkAddr, err = serveOn(w.env, "gatekeeper", func(e transport.Env, ready func(string)) error {
		return w.gk.Serve(e, 0, ready)
	})
	if err != nil {
		return err
	}
	w.rsls = [2]string{
		"&(executable=hostname)(count=2)(jobmanager=rmf)",
		fmt.Sprintf("&(executable=echo)(arguments=staged)(count=1)(jobmanager=rmf)(stdin=%s)", stdinURL),
	}

	outURL := gass.URL(fileAddr, "/out/echo.txt")
	check := w.rsls[1] + fmt.Sprintf("(stdout=%s)", outURL)
	if j := w.job(nil, noSpan, check); j.err != nil || !j.done {
		return fmt.Errorf("stage-out check job: done=%v err=%v", j.done, j.err)
	}
	out, err := gass.Fetch(w.env, outURL)
	if err != nil {
		return fmt.Errorf("stage-out check: %w", err)
	}
	if !bytes.Contains(out, w.stdin) {
		return fmt.Errorf("stage-out check: the echo job's output does not contain the %d-byte stdin file", len(w.stdin))
	}
	for i := 0; i < w.perUser/20; i++ {
		for _, text := range w.rsls {
			if j := w.job(nil, noSpan, text); j.err != nil || !j.done {
				return fmt.Errorf("warm-up job: done=%v err=%v", j.done, j.err)
			}
		}
	}
	return nil
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	ms, submitUS float64
	statusUS     []float64
	done         bool
	err          error
}

// job submits one RSL and polls its status until it is done or has failed.
func (w *submitTCP) job(tr *tracer, parent int, text string) jobTiming {
	var j jobTiming
	t0 := time.Now()
	id := tr.begin("gram.Submit", parent)
	contact, err := gram.Submit(w.env, w.gkAddr, w.cred, text)
	tr.end(id)
	j.submitUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		j.err = err
		return j
	}
	for {
		s0 := time.Now()
		id := tr.begin("gram.Status", parent)
		state, msg, err := gram.Status(w.env, w.gkAddr, w.cred, contact)
		tr.end(id)
		j.statusUS = append(j.statusUS, float64(time.Since(s0).Nanoseconds())/1e3)
		if err != nil {
			j.err = err
			return j
		}
		switch rmf.State(state) {
		case rmf.StateDone:
			j.done = true
			j.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
			return j
		case rmf.StateFailed:
			j.err = fmt.Errorf("job %s failed: %s", contact, msg)
			return j
		}
		if time.Since(t0) > 30*time.Second {
			j.err = fmt.Errorf("job %s still not done after 30 s", contact)
			return j
		}
		w.env.Sleep(time.Nanosecond) // gram.Wait's poll interval at its shortest
	}
}

func (w *submitTCP) run(p *pass) error {
	results := make([][]jobTiming, submitClients)
	p.timed(func() {
		var wg sync.WaitGroup
		for c := 0; c < submitClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				span := p.tr.begin("client", p.span)
				for i := 0; i < w.perUser; i++ {
					text := w.rsls[0]
					if w.mix[c*w.perUser+i] {
						text = w.rsls[1]
					}
					results[c] = append(results[c], w.job(p.tr, span, text))
				}
				p.tr.end(span)
			}(c)
		}
		wg.Wait()
	})
	var submits, statuses, jobsMS []float64
	polls, done := 0, 0
	for _, rs := range results {
		for _, j := range rs {
			p.attempted++
			if !j.done {
				p.fail(1, "submit-tcp: %v", j.err)
				continue
			}
			done++
			jobsMS = append(jobsMS, j.ms)
			submits = append(submits, j.submitUS)
			statuses = append(statuses, j.statusUS...)
			polls += len(j.statusUS)
		}
	}
	p.opsMS = append(p.opsMS, jobsMS...)
	p.work += float64(done)
	p.workSec += p.wall
	if done > 0 {
		p.set("gram.submit_p50_us", median(submits))
		p.set("gram.status_p50_us", median(statuses))
		p.set("gram.status_per_job", float64(polls)/float64(done))
		p.set("gram.job_p99_ms", percentile(jobsMS, 99))
	}
	return nil
}

func (w *submitTCP) teardown() {
	if w.gk != nil {
		w.gk.Close(w.env)
	}
	if w.files != nil {
		w.files.Close(w.env)
	}
	for _, q := range w.qservers {
		q.Close(w.env)
	}
	if w.alloc != nil {
		w.alloc.Close(w.env)
	}
	w.gk, w.files, w.qservers, w.alloc = nil, nil, nil, nil
}

// probeRSL times parsing the workload's two request strings.
func probeRSL(c *probeCtx) error {
	n := scaled(c.cfg, 200_000, 2_000)
	texts := []string{
		"&(executable=hostname)(count=2)(jobmanager=rmf)",
		"&(executable=echo)(arguments=staged)(count=1)(jobmanager=rmf)(stdin=x-gass://localhost:40000/in/stdin.txt)",
	}
	var parseErr error
	cst := measure(func() {
		for i := 0; i < n; i++ {
			if _, err := rsl.Parse(texts[i&1]); err != nil {
				parseErr = err
			}
		}
	})
	if parseErr != nil {
		return parseErr
	}
	c.set("rsl.parse_ns", cst.ns/float64(n))
	c.set("rsl.parse_allocs", cst.mallocs/float64(n))
	return nil
}

// probeAuth times the challenge/response handshake on an established
// loopback connection: Initiate on one end, Accept on the other. Every
// Submit and every Status pays one.
func probeAuth(c *probeCtx) error {
	n := scaled(c.cfg, 2_000, 50)
	env := transport.NewTCPEnv("localhost")
	cred := auth.Credential{Subject: "/O=Grid/CN=probe", Key: seededBytes(c.cfg.seed, 32)}
	kr := auth.NewKeyring()
	kr.Grant(cred, "probe")
	l, err := env.Listen(0)
	if err != nil {
		return err
	}
	defer l.Close(env)
	accepted := make(chan error, 1)
	env.Spawn("acceptor", func(e transport.Env) {
		for {
			conn, err := l.Accept(e)
			if err != nil {
				return
			}
			_, err = auth.Accept(e, conn, kr)
			_ = conn.Close(e)
			accepted <- err
		}
	})
	usec := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		conn, err := env.Dial(l.Addr())
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = auth.Initiate(env, conn, cred)
		if aerr := <-accepted; err == nil {
			err = aerr
		}
		usec = append(usec, float64(time.Since(t0).Nanoseconds())/1e3)
		_ = conn.Close(env)
		if err != nil {
			return err
		}
	}
	c.set("auth.handshake_us", median(usec))
	return nil
}

// probeFigure2 times the same submission flow inside the simulator.
func probeFigure2(c *probeCtx) error {
	n := scaled(c.cfg, 50, 2)
	var err error
	cst := measure(func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = bench.Figure2()
		}
	})
	if err != nil {
		return err
	}
	c.set("gram.figure2_ns", cst.ns/float64(n))
	return nil
}

// probeAllocate times the wire rmf.Allocate + rmf.Release pair for two
// slots against allocators holding 20 and 1,024 resources: the gap between
// the two is what ranking every candidate per slot costs.
func probeAllocate(c *probeCtx) error {
	n := scaled(c.cfg, 1_000, 30)
	for _, size := range []struct {
		resources int
		metric    string
	}{{20, "rmf.allocate_us.r20"}, {submitResources, "rmf.allocate_us.r1024"}} {
		env := transport.NewTCPEnv("localhost")
		a := rmf.NewAllocator()
		addr, err := serveOn(env, "rmf-allocator", func(e transport.Env, ready func(string)) error {
			return a.Serve(e, 0, ready)
		})
		if err != nil {
			return err
		}
		for i := 0; i < size.resources; i++ {
			a.Register(fmt.Sprintf("node%04d", i), "localhost:1", "default", 2)
		}
		usec := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			names, _, err := rmf.Allocate(env, addr, 2, "")
			if err == nil {
				err = rmf.Release(env, addr, names)
			}
			if err != nil {
				a.Close(env)
				return err
			}
			usec = append(usec, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		a.Close(env)
		c.set(size.metric, median(usec))
	}
	return nil
}

// probeQServer times submitting a process to a live Q server and asking for
// its status.
func probeQServer(c *probeCtx) error {
	n := scaled(c.cfg, 1_000, 30)
	env := transport.NewTCPEnv("localhost")
	q := rmf.NewQServer("probe-node", "default", 2, programs.Demo())
	addr, err := serveOn(env, "rmf-qserver", func(e transport.Env, ready func(string)) error {
		return q.Serve(e, 0, "", ready)
	})
	if err != nil {
		return err
	}
	defer q.Close(env)
	submits, statuses := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := rmf.Submit(env, addr, rmf.ProcessSpec{Executable: "hostname"})
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := rmf.Status(env, addr, id); err != nil {
			return err
		}
		submits = append(submits, float64(t1.Sub(t0).Nanoseconds())/1e3)
		statuses = append(statuses, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	c.set("rmf.qsubmit_us", median(submits))
	c.set("rmf.qstatus_us", median(statuses))
	return nil
}

// probeMDSClient times a wire search against a directory server holding the
// workload's 1,024 resources.
func probeMDSClient(c *probeCtx) error {
	n := scaled(c.cfg, 200, 10)
	env := transport.NewTCPEnv("localhost")
	dir := mds.NewDirectory()
	for i := 0; i < submitResources; i++ {
		name := fmt.Sprintf("node%04d", i)
		attrs := map[string][]string{"hn": {name}, "status": {"up"}, "cpus": {"2"}}
		if err := dir.Add("hn="+name+", ou=probe, o=grid", attrs); err != nil {
			return err
		}
	}
	srv := mds.NewServer(dir)
	addr, err := serveOn(env, "mds", func(e transport.Env, ready func(string)) error {
		return srv.Serve(e, 0, ready)
	})
	if err != nil {
		return err
	}
	defer srv.Close(env)
	cl := mds.Client{Addr: addr}
	usec := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		es, err := cl.Search(env, "ou=probe, o=grid", "(hn=node0512)")
		if err != nil {
			return err
		}
		if len(es) != 1 {
			return fmt.Errorf("mds search found %d entries, want 1", len(es))
		}
		usec = append(usec, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	c.set("mds.client_search_us", median(usec))
	return nil
}

// probeGASS times fetching the 4 KiB stdin file uncached and through the
// caching client, and a 1 MiB file for throughput.
func probeGASS(c *probeCtx) error {
	n := scaled(c.cfg, 1_000, 30)
	env := transport.NewTCPEnv("localhost")
	store := gass.NewStore()
	small, big := seededBytes(c.cfg.seed, 4096), seededBytes(c.cfg.seed, 1<<20)
	if err := store.Put("/small", small); err != nil {
		return err
	}
	if err := store.Put("/big", big); err != nil {
		return err
	}
	srv := gass.NewServer(store)
	addr, err := serveOn(env, "gass", func(e transport.Env, ready func(string)) error {
		return srv.Serve(e, 0, ready)
	})
	if err != nil {
		return err
	}
	defer srv.Close(env)
	smallURL, bigURL := gass.URL(addr, "/small"), gass.URL(addr, "/big")

	timeGets := func(n int, want []byte, get func() ([]byte, error)) ([]float64, error) {
		usec := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			data, err := get()
			if err != nil {
				return nil, err
			}
			usec = append(usec, float64(time.Since(t0).Nanoseconds())/1e3)
			if !bytes.Equal(data, want) {
				return nil, fmt.Errorf("gass returned %d bytes that differ from the %d stored", len(data), len(want))
			}
		}
		return usec, nil
	}
	cold, err := timeGets(n, small, func() ([]byte, error) { return gass.Fetch(env, smallURL) })
	if err != nil {
		return err
	}
	c.set("gass.fetch_cold_us", median(cold))
	cl := gass.NewClient()
	if _, err := cl.Get(env, smallURL); err != nil {
		return err
	}
	cached, err := timeGets(n, small, func() ([]byte, error) { return cl.Get(env, smallURL) })
	if err != nil {
		return err
	}
	c.set("gass.fetch_cached_us", median(cached))
	bulk, err := timeGets(scaled(c.cfg, 100, 5), big, func() ([]byte, error) { return gass.Fetch(env, bigURL) })
	if err != nil {
		return err
	}
	c.set("gass.fetch_mb_s.1m", float64(len(big))/median(bulk))
	return nil
}
