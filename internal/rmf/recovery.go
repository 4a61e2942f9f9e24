package rmf

import (
	"fmt"
	"sort"
	"time"

	"nxcluster/internal/hbm"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// This file is RMF's failure-detection and recovery layer. The allocator
// learns liveness from the heartbeat monitor and stops handing out slots on
// dead Q servers; the Q client resubmits with backoff and requeues processes
// lost to a crashed resource onto survivors. Everything here is opt-in: a
// job without a RecoveryPolicy behaves exactly as before.

// SetHealth records a resource's heartbeat classification. A transition to
// DOWN clears the resource's outstanding load — slots held by a dead host
// are gone, and keeping them would starve it after a restart. Unknown names
// are ignored (the monitor may track processes the allocator does not own).
func (a *Allocator) SetHealth(name string, h hbm.Health) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.ids[name]
	if !ok {
		return
	}
	r := &a.res[id]
	if h == hbm.Down && r.Health != hbm.Down {
		a.tracef("allocator: %s is DOWN; clearing %d slots", name, r.Load)
		r.Load = 0
	}
	if h != r.Health {
		a.tracef("allocator: %s health %v -> %v", name, r.Health, h)
	}
	r.Health = h
	a.fix(id)
}

// Health reports the allocator's current view of a resource (Up for
// resources never classified, Down for unknown names).
func (a *Allocator) Health(name string) hbm.Health {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.ids[name]; ok {
		return a.res[id].Health
	}
	return hbm.Down
}

// WatchHBM launches a service that polls the heartbeat monitor at hbmAddr
// every interval and feeds the classifications into the allocator. Resource
// names must match the names their Q servers beat under. Poll errors are
// tolerated — the allocator keeps its last view while the monitor is
// unreachable.
func (a *Allocator) WatchHBM(env transport.Env, hbmAddr string, interval time.Duration) {
	env.SpawnService("rmf-alloc:hbm-watch", func(e transport.Env) {
		for {
			e.Sleep(interval)
			all, err := hbm.QueryAll(e, hbmAddr)
			if err != nil {
				continue
			}
			names := make([]string, 0, len(all))
			for n := range all {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				a.SetHealth(n, all[n])
			}
		}
	})
}

// RecoveryPolicy makes JobHandle.Await survive Q server failures. A process
// whose Q server stops answering (or forgets the job id across a restart) is
// declared lost after StatusRetries consecutive failed calls; a replacement
// slot is allocated — the health-aware allocator steers it off the dead
// resource — the same spec resubmitted there, and only then is the lost slot
// released. Recovery gives at-least-once execution: a process that dies after
// doing work runs again from scratch, so programs must be idempotent or
// restartable.
type RecoveryPolicy struct {
	// StatusRetries is the number of consecutive failed calls to a process's
	// Q server, one Await poll apart, before the process is declared lost
	// (default 3).
	StatusRetries int
	// Backoff paces replacement allocation and resubmission (zero value:
	// transport defaults).
	Backoff transport.Backoff
	// SpeculateAfter, when nonzero, is a per-process progress deadline: a
	// process still running SpeculateAfter past the start of its wait is
	// treated as a straggler and one speculative duplicate is launched on a
	// fresh slot — the load- and health-aware allocator steers the copy off
	// the busy or SUSPECT resource. The deadline is checked each time the
	// primary's held Await returns, so at most one poll after it passes.
	// Whichever copy reaches DONE first wins and the loser's slot is
	// released; a loser that is already executing may still run to
	// completion on its Q server. Like requeue this is at-least-once
	// execution with deduplication at the consumer: the job handle records
	// exactly one winning Process per index, the same ledger discipline
	// knapsack.RunFT uses to absorb duplicate steal results. Zero disables
	// speculation.
	SpeculateAfter time.Duration
}

// place allocates one slot and submits process i's spec to it; a slot whose
// submit fails is released.
func (h *JobHandle) place(env transport.Env, i int) (Process, error) {
	names, addrs, err := Allocate(env, h.AllocatorAddr, 1, h.Cluster)
	if err != nil {
		return Process{}, err
	}
	id, err := Submit(env, addrs[0], h.Specs[i])
	if err != nil {
		h.release(env, names[0])
		return Process{}, err
	}
	return Process{Resource: names[0], QServerAddr: addrs[0], JobID: id}, nil
}

// replace makes np process i and releases the slot it replaces.
func (h *JobHandle) replace(env transport.Env, i int, np Process) {
	h.release(env, h.Processes[i].Resource)
	h.Processes[i] = np
}

// release returns one slot (best effort).
func (h *JobHandle) release(env transport.Env, resource string) {
	_ = Release(env, h.AllocatorAddr, []string{resource})
}

// speculate launches one duplicate of process i on a fresh slot. The
// allocator's load- and health-aware ranking steers the copy away from the
// straggler, which still holds its own slot. Best-effort by design: a copy
// that cannot be placed or submitted is skipped, and since the progress
// deadline stays expired, Await tries again on the primary's next return.
func (h *JobHandle) speculate(env transport.Env, i int) *Process {
	np, err := h.place(env, i)
	if err != nil {
		return nil
	}
	h.Speculations++
	if o := obs.From(env); o != nil {
		o.EmitCtx(env.Now(), h.Trace, "rmf", "speculate", env.Hostname(),
			obs.Str("slow", h.Processes[i].Resource), obs.Str("copy", np.Resource), obs.Str("job", np.JobID))
		o.Metrics().Counter("rmf.speculations").Add(1)
	}
	return &np
}

// requeue replaces a lost process: allocate a fresh slot, resubmit the
// original spec, then release the lost slot. It retries until it succeeds or
// the deadline passes, because the allocator may briefly keep offering the
// dead resource until the heartbeat monitor classifies it DOWN. The lost
// slot stays held until then: it counts against its resource while the
// replacement is ranked, and a requeue that times out leaves it to
// ReleaseSlots, so it is released once.
func (h *JobHandle) requeue(env transport.Env, i int, deadline time.Duration, bo *transport.Backoff) error {
	lost := h.Processes[i]
	// Resubmission dials carry the job's root context so the replacement
	// exec span parents under the same trace as the lost original.
	saved := obs.CtxOf(env)
	obs.SetCtx(env, h.Trace)
	defer obs.SetCtx(env, saved)
	for {
		if env.Now() > deadline {
			return fmt.Errorf("rmf: requeue of %s (lost on %s) timed out", lost.JobID, lost.Resource)
		}
		np, err := h.place(env, i)
		if err != nil {
			env.Sleep(bo.Next())
			continue
		}
		h.replace(env, i, np)
		h.Requeues++
		if o := obs.From(env); o != nil {
			o.EmitCtx(env.Now(), h.Trace, "rmf", "requeue", env.Hostname(),
				obs.Str("lost", lost.Resource), obs.Str("to", np.Resource), obs.Str("job", np.JobID))
			o.Metrics().Counter("rmf.requeues").Add(1)
		}
		bo.Reset()
		return nil
	}
}
