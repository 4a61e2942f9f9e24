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
// whose Q server stops answering Status (or forgets the job id across a
// restart) is declared lost after StatusRetries consecutive errors; its slot
// is released, a replacement is allocated — the health-aware allocator
// steers it off the dead resource — and the same spec resubmitted. Recovery
// gives at-least-once execution: a process that dies after doing work runs
// again from scratch, so programs must be idempotent or restartable.
type RecoveryPolicy struct {
	// StatusRetries is the number of consecutive Status failures before a
	// process is declared lost (default 3).
	StatusRetries int
	// Backoff paces replacement allocation and resubmission (zero value:
	// transport defaults).
	Backoff transport.Backoff
	// SpeculateAfter, when nonzero, is a per-process progress deadline: a
	// process still running SpeculateAfter past the start of its wait is
	// treated as a straggler and one speculative duplicate is launched on a
	// fresh slot — the load- and health-aware allocator steers the copy off
	// the busy or SUSPECT resource. Whichever copy reaches DONE first wins
	// and the loser's slot is released; a loser that is already executing
	// may still run to completion on its Q server. Like requeue this is
	// at-least-once execution with deduplication at the consumer: the job
	// handle records exactly one winning Process per index, the same ledger
	// discipline knapsack.RunFT uses to absorb duplicate steal results.
	// Zero disables speculation.
	SpeculateAfter time.Duration
}

// pollAll is Await under a RecoveryPolicy: Status every poll, requeue and
// speculation decided between polls.
func (h *JobHandle) pollAll(env transport.Env, poll, deadline time.Duration) error {
	statusRetries := h.Recovery.StatusRetries
	if statusRetries <= 0 {
		statusRetries = 3
	}
	bo := h.Recovery.Backoff
	if bo.Key == "" {
		bo.Key = "rmf-requeue@" + h.AllocatorAddr
	}
	if bo.Rand == nil {
		bo.Rand = transport.RandOf(env)
	}
	speculateAfter := h.Recovery.SpeculateAfter
	o := obs.From(env)
	var firstErr error
	for i := range h.Processes {
		errStreak := 0
		specStreak := 0
		var spec *Process // in-flight speculative duplicate, if any
		procStart := env.Now()
		for {
			p := h.Processes[i]
			state, msg, err := Status(env, p.QServerAddr, p.JobID)
			if err != nil {
				errStreak++
				if errStreak >= statusRetries {
					if spec != nil {
						// The primary is lost but a speculative copy is in
						// flight: promote the copy instead of requeueing.
						_ = Release(env, h.AllocatorAddr, []string{p.Resource})
						h.Processes[i] = *spec
						spec = nil
						errStreak = 0
						procStart = env.Now()
						if o != nil {
							o.EmitCtx(env.Now(), h.Trace, "rmf", "spec-promote", env.Hostname(),
								obs.Str("lost", p.Resource), obs.Str("to", h.Processes[i].Resource))
						}
						env.Sleep(poll)
						continue
					}
					// The Q server is gone or lost the job: requeue.
					if rqErr := h.requeue(env, i, deadline, &bo); rqErr != nil {
						if firstErr == nil {
							firstErr = rqErr
						}
						break
					}
					errStreak = 0
					procStart = env.Now()
				}
				env.Sleep(poll)
				continue
			}
			errStreak = 0
			if ended, err := h.ended(env, p, state, msg); ended {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				break
			}
			if env.Now() > deadline {
				if firstErr == nil {
					firstErr = fmt.Errorf("rmf: job %s on %s timed out in state %s", p.JobID, p.Resource, state)
				}
				break
			}
			if spec != nil {
				sstate, _, serr := Status(env, spec.QServerAddr, spec.JobID)
				if serr != nil {
					specStreak++
					if specStreak >= statusRetries {
						// The copy's resource died too; drop it. The progress
						// deadline is still past, so a fresh copy launches on
						// the next poll.
						_ = Release(env, h.AllocatorAddr, []string{spec.Resource})
						spec = nil
						specStreak = 0
					}
				} else {
					specStreak = 0
					if sstate == StateDone {
						// First completion wins: the copy beat the primary.
						// Swap it in and release the loser's slot — the loser
						// may still run to completion on its Q server
						// (at-least-once), but only the winner's result is
						// consumed.
						_ = Release(env, h.AllocatorAddr, []string{p.Resource})
						h.Processes[i] = *spec
						spec = nil
						if o != nil {
							o.EmitCtx(env.Now(), h.Trace, "rmf", "exit", env.Hostname(),
								obs.Str("job", h.Processes[i].JobID), obs.Str("resource", h.Processes[i].Resource))
						}
						break
					}
					if sstate == StateFailed {
						_ = Release(env, h.AllocatorAddr, []string{spec.Resource})
						spec = nil
					}
				}
			} else if speculateAfter > 0 && env.Now()-procStart >= speculateAfter {
				spec = h.speculate(env, i, o)
			}
			env.Sleep(poll)
		}
		if spec != nil {
			// The primary reached a terminal state with a copy still in
			// flight: release the copy's slot.
			_ = Release(env, h.AllocatorAddr, []string{spec.Resource})
		}
	}
	return firstErr
}

// speculate launches one duplicate of process i on a fresh slot. The
// allocator's load- and health-aware ranking steers the copy away from the
// straggler, which still holds its own slot. Best-effort by design: a copy
// that cannot be placed or submitted is skipped, and since the progress
// deadline stays expired, Await simply tries again on a later poll.
func (h *JobHandle) speculate(env transport.Env, i int, o *obs.Observer) *Process {
	names, addrs, err := Allocate(env, h.AllocatorAddr, 1, h.Cluster)
	if err != nil {
		return nil
	}
	id, err := Submit(env, addrs[0], h.Specs[i])
	if err != nil {
		_ = Release(env, h.AllocatorAddr, names)
		return nil
	}
	h.Speculations++
	if o != nil {
		o.EmitCtx(env.Now(), h.Trace, "rmf", "speculate", env.Hostname(),
			obs.Str("slow", h.Processes[i].Resource), obs.Str("copy", names[0]), obs.Str("job", id))
		o.Metrics().Counter("rmf.speculations").Add(1)
	}
	return &Process{Resource: names[0], QServerAddr: addrs[0], JobID: id}
}

// requeue replaces a lost process: release its slot, allocate a fresh one,
// resubmit the original spec. It retries until it succeeds or the deadline
// passes, because the allocator may briefly keep offering the dead resource
// until the heartbeat monitor classifies it DOWN.
func (h *JobHandle) requeue(env transport.Env, i int, deadline time.Duration, bo *transport.Backoff) error {
	p := h.Processes[i]
	// Resubmission dials carry the job's root context so the replacement
	// exec span parents under the same trace as the lost original.
	saved := obs.CtxOf(env)
	obs.SetCtx(env, h.Trace)
	defer obs.SetCtx(env, saved)
	_ = Release(env, h.AllocatorAddr, []string{p.Resource})
	for {
		if env.Now() > deadline {
			return fmt.Errorf("rmf: requeue of %s (lost on %s) timed out", p.JobID, p.Resource)
		}
		names, addrs, err := Allocate(env, h.AllocatorAddr, 1, h.Cluster)
		if err != nil {
			env.Sleep(bo.Next())
			continue
		}
		id, err := Submit(env, addrs[0], h.Specs[i])
		if err != nil {
			_ = Release(env, h.AllocatorAddr, names)
			env.Sleep(bo.Next())
			continue
		}
		h.Processes[i] = Process{Resource: names[0], QServerAddr: addrs[0], JobID: id}
		h.Requeues++
		if o := obs.From(env); o != nil {
			o.EmitCtx(env.Now(), h.Trace, "rmf", "requeue", env.Hostname(),
				obs.Str("lost", p.Resource), obs.Str("to", names[0]), obs.Str("job", id))
			o.Metrics().Counter("rmf.requeues").Add(1)
		}
		bo.Reset()
		return nil
	}
}
