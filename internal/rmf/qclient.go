package rmf

import (
	"fmt"
	"math"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// roundTrip sends one framed request and reads the status-prefixed reply.
func roundTrip(env transport.Env, addr string, req *nexus.Buffer) (*nexus.Buffer, error) {
	c, err := env.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("rmf: dial %s: %w", addr, err)
	}
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	if err := nexus.WriteFrame(st, req); err != nil {
		return nil, err
	}
	resp, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return nil, err
	}
	ok, err := resp.GetBool()
	if err != nil {
		return nil, err
	}
	if !ok {
		msg, _ := resp.GetString()
		return nil, fmt.Errorf("rmf: %s: %s", addr, msg)
	}
	return resp, nil
}

// RegisterResource announces a Q server to the allocator.
func RegisterResource(env transport.Env, allocatorAddr, name, addr, cluster string, cpus int) error {
	req := nexus.NewBuffer()
	req.PutInt32(opRegister)
	req.PutString(name)
	req.PutString(addr)
	req.PutString(cluster)
	req.PutInt32(int32(cpus))
	_, err := roundTrip(env, allocatorAddr, req)
	return err
}

// Allocate asks the allocator for count process slots (Figure 2 steps 3-4:
// "the Q client inquires of a resource allocator which resources are best";
// "a resource allocator selects resources and reports their names").
// cluster filters to one cluster ("" = any).
func Allocate(env transport.Env, allocatorAddr string, count int, cluster string) (names, addrs []string, err error) {
	req := nexus.NewBuffer()
	req.PutInt32(opAlloc)
	req.PutInt32(int32(count))
	req.PutString(cluster)
	resp, err := roundTrip(env, allocatorAddr, req)
	if err != nil {
		return nil, nil, err
	}
	n, err := resp.GetInt32()
	if err != nil {
		return nil, nil, err
	}
	for i := int32(0); i < n; i++ {
		name, e1 := resp.GetString()
		addr, e2 := resp.GetString()
		if e1 != nil || e2 != nil {
			return nil, nil, fmt.Errorf("rmf: malformed alloc reply")
		}
		names = append(names, name)
		addrs = append(addrs, addr)
	}
	return names, addrs, nil
}

// Release returns allocated slots.
func Release(env transport.Env, allocatorAddr string, names []string) error {
	req := nexus.NewBuffer()
	req.PutInt32(opRelease)
	req.PutInt32(int32(len(names)))
	for _, n := range names {
		req.PutString(n)
	}
	_, err := roundTrip(env, allocatorAddr, req)
	return err
}

// ProcessSpec describes one job process to run.
type ProcessSpec struct {
	// Executable is the registered program name.
	Executable string
	// Args are program arguments.
	Args []string
	// Env carries environment variables.
	Env map[string]string
	// StdinURL optionally stages an input file (x-gass URL, or x-gridftp
	// for bulk transfers over the parallel-stream data plane).
	StdinURL string
	// StdoutURL optionally receives the output (x-gass or x-gridftp URL).
	StdoutURL string
}

// Submit sends one process to a Q server (Figure 2 step 5) and returns the
// job id.
func Submit(env transport.Env, qserverAddr string, spec ProcessSpec) (string, error) {
	req := nexus.NewBuffer()
	req.PutInt32(opSubmit)
	req.PutString(spec.Executable)
	req.PutInt32(int32(len(spec.Args)))
	for _, a := range spec.Args {
		req.PutString(a)
	}
	req.PutInt32(int32(len(spec.Env)))
	for k, v := range spec.Env {
		req.PutString(k)
		req.PutString(v)
	}
	req.PutString(spec.StdinURL)
	req.PutString(spec.StdoutURL)
	resp, err := roundTrip(env, qserverAddr, req)
	if err != nil {
		return "", err
	}
	return resp.GetString()
}

// Status queries one job's state.
func Status(env transport.Env, qserverAddr, jobID string) (State, string, error) {
	req := nexus.NewBuffer()
	req.PutInt32(opStatus)
	req.PutString(jobID)
	return askState(env, qserverAddr, req)
}

// Await is Status answered only once the process is terminal or hold has
// passed, whichever is first: the Q server tells the caller when the process
// ends, so nobody polls for it. A hold beyond the server's limit is cut to
// it, so a non-terminal answer means "ask again", not "hold elapsed".
func Await(env transport.Env, qserverAddr, jobID string, hold time.Duration) (State, string, error) {
	req := nexus.NewBuffer()
	req.PutInt32(opAwait)
	req.PutString(jobID)
	req.PutInt64(int64(hold))
	return askState(env, qserverAddr, req)
}

// askState sends a Q server request that is answered with a state and a
// failure message.
func askState(env transport.Env, qserverAddr string, req *nexus.Buffer) (State, string, error) {
	resp, err := roundTrip(env, qserverAddr, req)
	if err != nil {
		return StateFailed, "", err
	}
	s, err := resp.GetInt32()
	if err != nil {
		return StateFailed, "", err
	}
	msg, err := resp.GetString()
	if err != nil {
		return StateFailed, "", err
	}
	return State(s), msg, nil
}

// Process is one submitted process of a job.
type Process struct {
	// Resource is the executing resource's name.
	Resource string
	// QServerAddr is its Q server address.
	QServerAddr string
	// JobID is the Q server's id for this process.
	JobID string
}

// JobHandle tracks a multi-process RMF job.
type JobHandle struct {
	// AllocatorAddr is where slots were allocated.
	AllocatorAddr string
	// Processes are the submitted processes.
	Processes []Process
	// Cluster is the allocation filter the job was submitted with.
	Cluster string
	// Specs holds each process's submitted spec so a lost process can be
	// requeued verbatim.
	Specs []ProcessSpec
	// Recovery, when non-nil, makes Wait requeue processes lost to Q server
	// failures instead of reporting them as errors.
	Recovery *RecoveryPolicy
	// Requeues counts processes recovered onto replacement resources.
	Requeues int
	// Speculations counts speculative duplicates launched by Wait under a
	// RecoveryPolicy with SpeculateAfter set.
	Speculations int
	// Trace is the job's root trace context, minted by SubmitJob when an
	// observer is attached (zero otherwise). Allocation, per-process
	// submission, server-side execution and staging all parent under it;
	// Wait closes the root span when the job reaches a terminal state.
	Trace    obs.TraceContext
	released bool
}

// JobRequest is a whole-job submission: count processes of one spec.
type JobRequest struct {
	// Count is the number of processes.
	Count int
	// Cluster restricts allocation ("" = any).
	Cluster string
	// Spec is the per-process specification. StdoutURL, when set, receives
	// a "#<index>" suffix per process so outputs do not collide.
	Spec ProcessSpec
}

// SubmitJob runs the Q client side of Figure 2: allocate resources, then
// submit each process to its Q server.
func SubmitJob(env transport.Env, allocatorAddr string, req JobRequest) (*JobHandle, error) {
	if req.Count <= 0 {
		return nil, fmt.Errorf("rmf: job count must be positive")
	}
	o := obs.From(env)
	// The job is a traced unit: a trace tree roots here — or joins the
	// caller's, when a gatekeeper job manager already carries one — and the
	// allocate and per-process submit legs run with the matching context
	// installed as the process's ambient, so their dials — and, through
	// connection baggage, the Q server's execution and staging spans —
	// parent under it. The saved context is restored on return; with no
	// observer every context is zero and nothing changes.
	root := o.BeginSpan(env.Now(), obs.CtxOf(env), "rmf", "job", env.Hostname(),
		obs.Int("count", int64(req.Count)), obs.Str("cluster", req.Cluster))
	saved := obs.CtxOf(env)
	defer obs.SetCtx(env, saved)
	if o != nil {
		o.EmitCtx(env.Now(), root, "rmf", "submit", env.Hostname(), obs.Int("count", int64(req.Count)), obs.Str("cluster", req.Cluster))
	}
	tcAlloc := o.BeginChild(env.Now(), root, "rmf", "allocate", env.Hostname())
	obs.SetCtx(env, tcAlloc)
	names, addrs, err := Allocate(env, allocatorAddr, req.Count, req.Cluster)
	o.EndSpan(env.Now(), tcAlloc, "rmf", "allocate", env.Hostname(), obs.Int("granted", int64(len(names))))
	if err != nil {
		o.EndSpan(env.Now(), root, "rmf", "job", env.Hostname(), obs.Str("err", "allocate"))
		return nil, err
	}
	if o != nil {
		for _, n := range names {
			o.EmitCtx(env.Now(), tcAlloc, "rmf", "allocate", env.Hostname(), obs.Str("resource", n))
		}
	}
	h := &JobHandle{AllocatorAddr: allocatorAddr, Cluster: req.Cluster, Trace: root}
	for i := range names {
		spec := req.Spec
		if spec.StdoutURL != "" && req.Count > 1 {
			spec.StdoutURL = fmt.Sprintf("%s#%d", spec.StdoutURL, i)
		}
		tcSub := o.BeginChild(env.Now(), root, "rmf", "submit-proc", env.Hostname(), obs.Str("resource", names[i]))
		obs.SetCtx(env, tcSub)
		id, err := Submit(env, addrs[i], spec)
		o.EndSpan(env.Now(), tcSub, "rmf", "submit-proc", env.Hostname())
		if err != nil {
			// Best-effort cleanup of already-claimed slots.
			_ = Release(env, allocatorAddr, names)
			o.EndSpan(env.Now(), root, "rmf", "job", env.Hostname(), obs.Str("err", "submit"))
			return nil, fmt.Errorf("rmf: submit to %s: %w", names[i], err)
		}
		h.Processes = append(h.Processes, Process{Resource: names[i], QServerAddr: addrs[i], JobID: id})
		h.Specs = append(h.Specs, spec)
	}
	return h, nil
}

// Wait blocks until every process reaches a terminal state or the timeout
// expires, then releases the allocation. It returns the first failure. poll
// is the longest Wait goes without looking at its deadline.
//
// Without a RecoveryPolicy it asks each Q server to answer when the process
// ends (Await, held for poll at a time), so it returns as the last process
// finishes. With one it polls Status every poll instead, on purpose: losing
// a process is counted in consecutive failed polls and the speculation
// deadline is checked once per poll, so the recovery behaviour (and every
// hashed chaos run, all of which set a policy) is a function of that cadence.
// A process whose Q server stops answering — crashed host, restarted daemon
// that forgot the job id — is then requeued onto a fresh slot instead of
// failing the job (see RecoveryPolicy for semantics).
func (h *JobHandle) Wait(env transport.Env, poll, timeout time.Duration) error {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	deadline := env.Now() + timeout
	if timeout <= 0 {
		deadline = time.Duration(math.MaxInt64)
	}
	var err error
	if h.Recovery == nil {
		err = h.awaitAll(env, poll, deadline)
	} else {
		err = h.pollAll(env, poll, deadline)
	}
	h.ReleaseSlots(env)
	return err
}

// awaitAll is Wait for a job without a RecoveryPolicy.
func (h *JobHandle) awaitAll(env transport.Env, poll, deadline time.Duration) error {
	var firstErr error
	for _, p := range h.Processes {
		if err := h.await(env, p, poll, deadline); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// await blocks until p has ended, its Q server fails to answer, or the
// deadline passes.
func (h *JobHandle) await(env transport.Env, p Process, poll, deadline time.Duration) error {
	for {
		state, msg, err := Await(env, p.QServerAddr, p.JobID, poll)
		if err != nil {
			return err
		}
		if ended, err := h.ended(env, p, state, msg); ended {
			return err
		}
		if env.Now() > deadline {
			return fmt.Errorf("rmf: job %s on %s timed out in state %s", p.JobID, p.Resource, state)
		}
	}
}

// ended reports whether state is terminal for p, leaving the matching event
// on the job's trace, and returns the process's failure if it has one.
func (h *JobHandle) ended(env transport.Env, p Process, state State, msg string) (bool, error) {
	if !state.ended() {
		return false, nil
	}
	name, err := "exit", error(nil)
	if state == StateFailed {
		name, err = "failed", fmt.Errorf("rmf: job %s on %s failed: %s", p.JobID, p.Resource, msg)
	}
	if o := obs.From(env); o != nil {
		o.EmitCtx(env.Now(), h.Trace, "rmf", name, env.Hostname(), obs.Str("job", p.JobID), obs.Str("resource", p.Resource))
	}
	return true, err
}

// ReleaseSlots returns the job's allocator slots (idempotent). It also
// closes the job's root trace span: releasing is the terminal client-side
// operation, so the span covers submit through release.
func (h *JobHandle) ReleaseSlots(env transport.Env) {
	if h.released {
		return
	}
	h.released = true
	obs.From(env).EndSpan(env.Now(), h.Trace, "rmf", "job", env.Hostname())
	names := make([]string, len(h.Processes))
	for i, p := range h.Processes {
		names[i] = p.Resource
	}
	_ = Release(env, h.AllocatorAddr, names)
}
