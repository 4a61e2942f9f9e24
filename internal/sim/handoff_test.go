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

// The coroutine protocol: the scheduling loop runs on whichever stack holds
// control — the Run caller's or a parking process's — so these tests pin what
// must not depend on which one that is: event order, Kill's synchrony, the
// RunUntil horizon, goroutine teardown, and who gets blamed for a panic.

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
					cond.Broadcast()
					note("broadcast")
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
			for k.Live() > 0 {
				k.RunUntil(k.Now() + time.Duration(r.Rand()%7)*time.Microsecond)
			}
			// The After callbacks the last process to exit left behind.
			if err := k.Run(); err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
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

// The victim is the last process to park, so its own stack is running
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

// A process never scheduled has no stack to unwind: Kill only keeps its body
// from ever starting, and retires it itself. And Kill is for kernel context.
func TestKillBeforeFirstSchedulingAndFromProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	ran := false
	p := k.Spawn("never", func(p *Proc) { ran = true })
	daemon := k.SpawnDaemon("never-daemon", func(p *Proc) { ran = true })
	done := p.Done()
	k.Kill(p)
	k.Kill(daemon)
	select {
	case <-done:
	default:
		t.Fatal("Done not closed")
	}
	if !p.Exited() || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("exited=%v Live()=%d, %d table entries", p.Exited(), k.Live(), len(k.procs))
	}
	var msg any
	k.Spawn("killer", func(q *Proc) {
		defer func() { msg = recover() }()
		k.Kill(k.Spawn("other", func(*Proc) {}))
	})
	if err := k.Run(); err != nil { // the dead ones' ready-queue entries are skipped
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a process killed before its first scheduling ran")
	}
	if s, _ := msg.(string); !strings.Contains(s, "kernel context") {
		t.Fatalf("Kill from a process: recovered %v", msg)
	}
	waitGoroutines(t, before)
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

// A body that leaves through runtime.Goexit (t.Fatal inside a process) used
// to pass control on and let the simulation finish. iter.Pull propagates a
// Goexit to the caller of next instead, so now the process is retired — its
// defers and exit still run — and then the goroutine driving the kernel ends
// by Goexit too: what testing requires of FailNow, and a failed assertion
// stops the test instead of letting the simulation run on.
func TestGoexitEndsTheRunCaller(t *testing.T) {
	for name, drive := range map[string]func(k *Kernel){
		"Run": func(k *Kernel) { _ = k.Run() },
		"Step": func(k *Kernel) {
			for k.Step() {
			}
		},
	} {
		before := runtime.NumGoroutine()
		k := New()
		var deferred, finished, marker, returned bool
		quitter := k.Spawn("quitter", func(p *Proc) {
			defer func() { deferred = true }()
			p.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		k.Spawn("other", func(p *Proc) {
			p.Sleep(time.Second)
			finished = true
		})
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			defer func() { marker = true }()
			drive(k)
			returned = true
		}()
		<-ended
		if !quitter.Exited() || k.Live() != 1 || !deferred {
			t.Fatalf("%s: quitter exited=%v live=%d deferred=%v", name, quitter.Exited(), k.Live(), deferred)
		}
		if !marker || returned || finished {
			t.Fatalf("%s: driver marker=%v returned=%v, other finished=%v", name, marker, returned, finished)
		}
		k.Shutdown()
		if k.Live() != 0 {
			t.Fatalf("%s: Live() = %d after Shutdown", name, k.Live())
		}
		waitGoroutines(t, before)
	}
}

// RunUntil's horizon is reached while a process's stack holds control.
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

// waitGoroutines polls until the goroutine count drops to want: a finished
// coroutine's goroutine is still returning for a moment after the switch back.
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
	var during []int
	survived := false
	k.Spawn("stopper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		k.Shutdown() // stops the others from this process's own coroutine
		during = append(during, *order...)
		k.Shutdown() // idempotent
		survived = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(during, want) {
		t.Fatalf("unwound in order %v by the time Shutdown returned, want PID order %v", during, want)
	}
	if !survived || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("survived=%v Live()=%d, %d table entries", survived, k.Live(), len(k.procs))
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

// Inline work runs on whichever stack is scheduling, so Kill and Shutdown
// refuse it on all of them alike: the caller's (Run, Step) and a parked
// process's — where the victim could be the very stack running the call.
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

// A finished coroutine's goroutine is gone when next returns: churning through
// processes leaves none behind, with no Shutdown to reap them.
func TestSpawnAndExitLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	exits := 0
	k.Spawn("churn", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			k.Spawn("job", func(*Proc) { exits++ })
			p.Yield()
		}
	})
	k.RunUntil(time.Second)
	if exits != 10000 || len(k.procs) != 0 {
		t.Fatalf("%d exits, %d table entries", exits, len(k.procs))
	}
	waitGoroutines(t, before)
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

// k.switches counts coroutine switches, two per resume (into the process and
// back out), where it used to count one goroutine handoff per resume. What
// stays pinned is that switches are bounded by the resumes the program needs:
// a process that is its own successor costs none.
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

	// Two processes alternating cost one resume per rendezvous: process ->
	// caller -> process, not one round through the caller per park and wake.
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
	if k.switches > 2*1000+10 {
		t.Fatalf("ping-pong: %d switches for 1000 rendezvous", k.switches)
	}
}

type panicTask struct{}

func (panicTask) RunTask(*Kernel) { panic("task boom") }

type panicHandler struct{}

func (*panicHandler) OnEvent(*Kernel) { panic("handler boom") }

// panicCases are the ways a run can panic, and the message each must carry.
var panicCases = map[string]struct {
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
	// A SleepEach step is inline work too: the panic is the kernel's, named
	// after the process whose slice it was (here on that process's stack).
	"slice": {
		func(k *Kernel) {
			k.Spawn("x", func(p *Proc) {
				p.SleepEach(time.Millisecond, func() time.Duration { panic("step boom") })
			})
		},
		`sim: kernel-context panic in slice of process "x": step boom`,
	},
	// Same, on the stack of a process that has already exited.
	"task-after-exit": {
		func(k *Kernel) { k.Spawn("x", func(*Proc) { k.AfterTask(time.Millisecond, panicTask{}) }) },
		"sim: kernel-context panic in sim.panicTask: task boom",
	},
}

// A panic under a process's stack is raised again on the goroutine driving
// the kernel, where the caller can recover it — and clean up afterwards: the
// process is retired, a bystander still unwinds, no goroutine is left.
func TestPanicsReachTheRunCaller(t *testing.T) {
	drivers := map[string]func(k *Kernel){
		"Run":      func(k *Kernel) { _ = k.Run() },
		"RunUntil": func(k *Kernel) { k.RunUntil(time.Hour) },
	}
	for name, c := range panicCases {
		for driver, drive := range drivers {
			before := runtime.NumGoroutine()
			k := New()
			cleaned := false
			k.Spawn("bystander", func(p *Proc) {
				defer func() { cleaned = true }()
				p.Sleep(time.Hour)
			})
			c.run(k)
			var got any
			func() {
				defer func() { got = recover() }()
				drive(k)
			}()
			if got != c.want {
				t.Errorf("%s under %s: recovered %v, want %q", name, driver, got, c.want)
			}
			k.Shutdown()
			if !cleaned || k.Live() != 0 || len(k.procs) != 0 {
				t.Errorf("%s under %s: cleaned=%v Live()=%d, %d table entries", name, driver, cleaned, k.Live(), len(k.procs))
			}
			waitGoroutines(t, before)
		}
	}
}

// An unrecovered panic must still take the binary down with the same message,
// so each case re-runs this test binary as a child and reads what it died with.
func TestPanicAttribution(t *testing.T) {
	const env = "SIM_PANIC_CASE"
	cases := panicCases
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
