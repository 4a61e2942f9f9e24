package sim

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The direct-handoff protocol: the scheduling loop runs on whichever
// goroutine holds control, so these tests pin what must not depend on which
// goroutine that is — event order, Kill's synchrony, the RunUntil horizon,
// goroutine teardown, and who gets blamed for a panic.

// rec is one observable step of a simulated program.
type rec struct {
	now time.Duration
	pid int
	op  string
}

// randomProgram spawns n processes that each perform steps random operations
// drawn from the kernel's own stream, logging every one. Every blocking
// operation carries a timeout, so the program always terminates.
func randomProgram(k *Kernel, seed uint64, n, steps int, log *[]rec) {
	k.Seed(seed)
	ch := NewChan[int](k, 1)
	cond := NewCond(k)
	var body func(depth int) func(p *Proc)
	body = func(depth int) func(p *Proc) {
		return func(p *Proc) {
			note := func(op string) { *log = append(*log, rec{p.Now(), p.PID(), op}) }
			for i := 0; i < steps; i++ {
				d := time.Duration(k.Rand()%5) * time.Microsecond
				switch k.Rand() % 8 {
				case 0:
					p.Sleep(d)
					note("sleep")
				case 1:
					p.Yield()
					note("yield")
				case 2:
					err := ch.SendTimeout(p, i, d)
					note(fmt.Sprint("send ", err))
				case 3:
					v, err := ch.RecvTimeout(p, d)
					note(fmt.Sprint("recv ", v, err))
				case 4:
					ok := cond.WaitTimeout(p, d+time.Microsecond)
					note(fmt.Sprint("wait ", ok))
				case 5:
					cond.Signal()
					note("signal")
				case 6:
					// A general After callback, so process-side loops meet fn
					// events and must hand them to the caller.
					k.After(d, func() { *log = append(*log, rec{k.Now(), 0, "after"}) })
					note("after")
				case 7:
					if depth < 2 {
						c := k.Spawn("child", body(depth+1))
						note(fmt.Sprint("spawn ", c.PID()))
					}
				}
			}
			note("exit")
		}
	}
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprint("p", i), body(0))
	}
}

func TestDriversProduceIdenticalSequences(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		run := func(drive func(k *Kernel)) []rec {
			var log []rec
			k := New()
			randomProgram(k, seed, 6, 40, &log)
			drive(k)
			if k.Live() != 0 {
				t.Fatalf("seed %d: %d processes still live", seed, k.Live())
			}
			k.Shutdown()
			return log
		}
		stepped := run(func(k *Kernel) {
			for k.Step() {
			}
		})
		ran := run(func(k *Kernel) {
			if err := k.Run(); err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
			}
		})
		sliced := run(func(k *Kernel) {
			// A private stream: the slicing must not disturb the program's.
			r := New()
			r.Seed(seed)
			for {
				if _, ok := k.NextEventAt(); !ok {
					return
				}
				k.RunUntil(k.Now() + time.Duration(r.Rand()%7)*time.Microsecond)
			}
		})
		if len(stepped) < 6*40 {
			t.Fatalf("seed %d: only %d records", seed, len(stepped))
		}
		if !reflect.DeepEqual(stepped, ran) {
			t.Fatalf("seed %d: Run diverges from Step: %s", seed, firstDiff(stepped, ran))
		}
		if !reflect.DeepEqual(stepped, sliced) {
			t.Fatalf("seed %d: sliced RunUntil diverges from Step: %s", seed, firstDiff(stepped, sliced))
		}
	}
}

func firstDiff(a, b []rec) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("record %d: %v vs %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// The victim is the last process to park, so its own goroutine is running
// the scheduling loop when the Kill callback comes due: the loop must hand
// the callback to the Run caller, and Kill must finish unwinding the victim
// before it returns and before the next event fires.
func TestKillFromAfterUnwindsSynchronously(t *testing.T) {
	k := New()
	var log []string
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { log = append(log, fmt.Sprint("deferred at ", p.Now())) }()
		p.Sleep(10 * time.Millisecond)
		log = append(log, "victim woke")
	})
	k.After(5*time.Millisecond, func() {
		k.Kill(victim)
		log = append(log, fmt.Sprint("kill returned, exited=", victim.Exited()))
		k.Kill(victim) // idempotent
	})
	k.After(5*time.Millisecond, func() { log = append(log, "next event") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"deferred at 5ms", "kill returned, exited=true", "next event"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
	if k.Now() != 10*time.Millisecond { // the dead sleeper's wakeup is a no-op
		t.Fatalf("Now() = %v", k.Now())
	}
	select {
	case <-victim.Done():
	default:
		t.Fatal("Done not closed")
	}
}

func TestKillBeforeFirstSchedulingAndFromProcess(t *testing.T) {
	k := New()
	ran := false
	p := k.Spawn("never", func(p *Proc) { ran = true })
	k.Kill(p)
	var msg any
	k.Spawn("killer", func(q *Proc) {
		defer func() { msg = recover() }()
		k.Kill(k.Spawn("other", func(*Proc) {}))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran || !p.Exited() {
		t.Fatalf("ran=%v exited=%v", ran, p.Exited())
	}
	if s, _ := msg.(string); !strings.Contains(s, "kernel context") {
		t.Fatalf("Kill from a process: recovered %v", msg)
	}
}

// A killed process cannot block again: cleanup that tries keeps unwinding.
func TestKilledProcessCannotPark(t *testing.T) {
	k := New()
	var log []string
	p := k.Spawn("p", func(p *Proc) {
		defer func() { log = append(log, "outer") }()
		defer func() {
			p.Sleep(time.Second)
			log = append(log, "slept") // not reached
		}()
		p.Sleep(time.Hour)
	})
	k.RunUntil(time.Minute)
	k.Kill(p)
	if !reflect.DeepEqual(log, []string{"outer"}) || !p.Exited() {
		t.Fatalf("log = %q exited=%v", log, p.Exited())
	}
}

// A body that leaves through runtime.Goexit (t.Fatal on a process goroutine)
// still passes control on instead of taking the simulation down with it.
func TestGoexitPassesControlOn(t *testing.T) {
	for _, drive := range []func(k *Kernel){
		func(k *Kernel) { _ = k.Run() },
		func(k *Kernel) {
			for k.Step() {
			}
		},
	} {
		k := New()
		finished := false
		quitter := k.Spawn("quitter", func(p *Proc) {
			p.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		k.Spawn("other", func(p *Proc) {
			p.Sleep(time.Second)
			finished = true
		})
		drive(k)
		if !finished || !quitter.Exited() || k.Live() != 0 {
			t.Fatalf("finished=%v quitter exited=%v live=%d", finished, quitter.Exited(), k.Live())
		}
	}
}

// RunUntil's horizon is reached while a process goroutine holds control.
func TestRunUntilHorizonOnProcessGoroutine(t *testing.T) {
	k := New()
	var wakes []time.Duration
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(3 * time.Millisecond)
			wakes = append(wakes, p.Now())
		}
	})
	k.RunUntil(10 * time.Millisecond)
	if k.Now() != 10*time.Millisecond || len(wakes) != 3 {
		t.Fatalf("after RunUntil(10ms): Now()=%v wakes=%v", k.Now(), wakes)
	}
	k.RunUntil(13 * time.Millisecond)
	if k.Now() != 13*time.Millisecond || len(wakes) != 4 {
		t.Fatalf("after RunUntil(13ms): Now()=%v wakes=%v", k.Now(), wakes)
	}
	// One Step fires the 15ms wakeup event, the next resumes the process.
	if !k.Step() || !k.Step() || k.Now() != 15*time.Millisecond || len(wakes) != 5 {
		t.Fatalf("after Step: Now()=%v wakes=%v", k.Now(), wakes)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 30*time.Millisecond || len(wakes) != 10 {
		t.Fatalf("after Run: Now()=%v wakes=%v", k.Now(), wakes)
	}
	for i, w := range wakes {
		if w != time.Duration(i+1)*3*time.Millisecond {
			t.Fatalf("wakes = %v", wakes)
		}
	}
}

// waitGoroutines polls until the goroutine count drops to want: a process
// goroutine is still returning for a moment after it signals its exit.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnMixed starts processes in every state Shutdown must unwind (PIDs 1-8
// stay parked, PID 9 exits) and returns the order their cleanups ran in.
func spawnMixed(k *Kernel) *[]int {
	order := new([]int)
	c := NewChan[int](k, 0)
	for i := 0; i < 4; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			defer func() { *order = append(*order, p.PID()) }()
			for {
				p.Sleep(time.Millisecond)
			}
		})
		k.SpawnDaemon("blocked", func(p *Proc) {
			defer func() { *order = append(*order, p.PID()) }()
			_, _ = c.Recv(p)
		})
	}
	k.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) })
	return order
}

func TestShutdownFromProcessLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	order := spawnMixed(k)
	k.Spawn("stopper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		k.Shutdown()
		k.Shutdown() // idempotent
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("unwound in order %v, want PID order %v", *order, want)
	}
	if k.Step() {
		t.Fatal("Step did work after Shutdown")
	}
	waitGoroutines(t, before)
}

func TestShutdownAfterRunUntilLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	order := spawnMixed(k)
	k.RunUntil(2500 * time.Microsecond)
	if k.Live() != 4 {
		t.Fatalf("Live() = %d, want 4", k.Live())
	}
	k.Spawn("unstarted", func(*Proc) { t.Error("ran") }) // killed before its first scheduling
	k.Shutdown()
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("unwound in order %v, want PID order %v", *order, want)
	}
	if k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("Live() = %d, %d table entries", k.Live(), len(k.procs))
	}
	waitGoroutines(t, before)
}

// Cleanup that spawns during Shutdown must not leak what it spawned.
func TestShutdownReapsProcessesSpawnedWhileUnwinding(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	k.Spawn("parent", func(p *Proc) {
		defer k.Spawn("orphan", func(*Proc) { t.Error("ran") })
		p.Sleep(time.Hour)
	})
	k.RunUntil(time.Second)
	k.Shutdown()
	waitGoroutines(t, before)
}

// inlineCall runs fn as an inline Task or EventHandler and keeps what it
// panicked with.
type inlineCall struct {
	fn  func()
	got any
}

func (c *inlineCall) RunTask(*Kernel) {
	defer func() { c.got = recover() }()
	c.fn()
}

func (c *inlineCall) OnEvent(k *Kernel) { c.RunTask(k) }

// Inline work runs on whichever goroutine is scheduling, so Kill and Shutdown
// refuse it on all of them alike: the caller's (Run, Step) and a parked
// process's — where the victim could be the very goroutine running the call.
func TestKillAndShutdownRefuseInlineWork(t *testing.T) {
	drivers := map[string]func(k *Kernel){
		"Run": func(k *Kernel) { _ = k.Run() },
		"Step": func(k *Kernel) {
			for k.Step() {
			}
		},
	}
	for _, op := range []string{"Kill", "Shutdown"} {
		for _, kind := range []string{"task", "handler"} {
			for _, host := range []string{"caller", "process"} {
				for name, drive := range drivers {
					before := runtime.NumGoroutine()
					k := New()
					cleaned := false
					victim := k.Spawn("victim", func(p *Proc) {
						defer func() { cleaned = true }()
						p.Sleep(time.Second)
					})
					if host == "caller" {
						// The victim parks and control comes home, so the
						// caller is who finds the inline work next.
						k.RunUntil(time.Microsecond)
					}
					c := &inlineCall{fn: k.Shutdown}
					if op == "Kill" {
						c.fn = func() { k.Kill(victim) }
					}
					if kind == "task" {
						k.AfterTask(time.Millisecond, c)
					} else {
						k.AfterEvent(time.Millisecond, c)
					}
					drive(k)
					id := fmt.Sprintf("%s from %s on %s under %s", op, kind, host, name)
					if s, _ := c.got.(string); !strings.Contains(s, "sim: "+op+" called from inline *sim.inlineCall") {
						t.Errorf("%s: recovered %v", id, c.got)
					}
					if !cleaned || !victim.Exited() || k.Now() != time.Second {
						t.Errorf("%s: the run did not carry on: cleaned=%v now=%v", id, cleaned, k.Now())
					}
					k.Shutdown()
					waitGoroutines(t, before)
				}
			}
		}
	}
}

// Exited processes leave the table, so Live stays O(1) and long runs that
// churn through short-lived processes do not grow.
func TestExitedProcessesLeaveTheTable(t *testing.T) {
	k := New()
	k.Spawn("churn", func(p *Proc) {
		for i := 0; i < 100; i++ {
			k.Spawn("job", func(q *Proc) { q.Sleep(time.Microsecond) })
			p.Sleep(time.Millisecond)
		}
	})
	k.SpawnDaemon("daemon", func(p *Proc) { p.Sleep(time.Hour) })
	k.RunUntil(time.Second)
	if len(k.procs) != 1 || k.Live() != 0 {
		t.Fatalf("%d table entries, Live() = %d; want the daemon only", len(k.procs), k.Live())
	}
	k.Shutdown()
}

func TestSwitchCounts(t *testing.T) {
	// One process that only sleeps is always next in line itself: after the
	// caller starts it, nothing switches until it exits.
	k := New()
	k.Spawn("solo", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.switches != 2 { // caller -> solo, solo -> caller on exit
		t.Fatalf("solo sleeper: %d switches, want 2", k.switches)
	}

	// Two processes alternating cost one switch per resume, not two.
	k = New()
	c := NewChan[int](k, 0)
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			_ = c.Send(p, i)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			_, _ = c.Recv(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.switches > 1010 {
		t.Fatalf("ping-pong: %d switches for 1000 rendezvous", k.switches)
	}
}

type panicTask struct{}

func (panicTask) RunTask(*Kernel) { panic("task boom") }

type panicHandler struct{}

func (*panicHandler) OnEvent(*Kernel) { panic("handler boom") }

// A panic on a process goroutine cannot be recovered by the test, so each
// case re-runs this test binary as a child and reads what it died with.
func TestPanicAttribution(t *testing.T) {
	const env = "SIM_PANIC_CASE"
	cases := map[string]struct {
		run  func(k *Kernel)
		want string
	}{
		"process": {
			func(k *Kernel) { k.Spawn("x", func(*Proc) { panic("own boom") }) },
			`sim: process "x" panicked: own boom`,
		},
		// The sleeper parks, finds the task next and runs it in place.
		"task": {
			func(k *Kernel) {
				k.Spawn("x", func(p *Proc) { k.AfterTask(time.Millisecond, panicTask{}); p.Sleep(time.Second) })
			},
			"sim: kernel-context panic in sim.panicTask: task boom",
		},
		"handler": {
			func(k *Kernel) {
				k.Spawn("x", func(p *Proc) { k.AfterEvent(time.Millisecond, &panicHandler{}); p.Sleep(time.Second) })
			},
			"sim: kernel-context panic in *sim.panicHandler: handler boom",
		},
		// Same, on the goroutine of a process that has already exited.
		"task-after-exit": {
			func(k *Kernel) { k.Spawn("x", func(*Proc) { k.AfterTask(time.Millisecond, panicTask{}) }) },
			"sim: kernel-context panic in sim.panicTask: task boom",
		},
	}
	if name := os.Getenv(env); name != "" {
		k := New()
		cases[name].run(k)
		_ = k.Run()
		return
	}
	for name, c := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPanicAttribution$")
		cmd.Env = append(os.Environ(), env+"="+name)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%s: child did not crash:\n%s", name, out)
			continue
		}
		if !strings.Contains(string(out), "panic: "+c.want) {
			t.Errorf("%s: child output lacks %q:\n%s", name, c.want, out)
		}
		if name != "process" && strings.Contains(string(out), `process "x" panicked`) {
			t.Errorf("%s: kernel-context panic blamed on the process:\n%s", name, out)
		}
	}
}
