package rmf

import (
	"fmt"
	"sync"
	"time"

	"nxcluster/internal/gass"
	"nxcluster/internal/gridftp"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// Q server wire ops.
const (
	opSubmit = int32(10)
	opStatus = int32(11) // fields: job id
	opAwait  = int32(12) // fields: job id, hold in nanoseconds (int64)
)

// maxAwaitHold is the longest one opAwait parks its handler whatever hold
// the peer asked for, so a peer cannot pin a handler and its connection for
// ever; a caller that wants longer asks again.
const maxAwaitHold = 10 * time.Second

// jobRecord tracks one submitted process on a Q server.
type jobRecord struct {
	id     string
	state  State
	errMsg string
	// ended is what opAwait handlers of a process that is still running wait
	// on; finish closes it. Nil until the first of them arrives.
	ended transport.AnyQueue
}

// QServer executes job processes on one computing resource. It corresponds
// to "a server of the Q system runs on every computing resource inside the
// firewall".
type QServer struct {
	transport.Bound
	// Resource is this resource's name (its host).
	Resource string
	// Cluster labels the resource's cluster for allocation filtering.
	Cluster string
	// CPUs is the advertised processor count.
	CPUs int
	// Registry resolves executable names.
	Registry *Registry

	mu     sync.Mutex
	nextID int
	jobs   map[string]*jobRecord
	trace  func(format string, args ...interface{})
}

// NewQServer creates a Q server for a resource.
func NewQServer(resource, cluster string, cpus int, reg *Registry) *QServer {
	return &QServer{
		Resource: resource,
		Cluster:  cluster,
		CPUs:     cpus,
		Registry: reg,
		jobs:     make(map[string]*jobRecord),
	}
}

// SetTrace installs a tracing callback.
func (q *QServer) SetTrace(fn func(string, ...interface{})) { q.trace = fn }

func (q *QServer) tracef(format string, args ...interface{}) {
	if q.trace != nil {
		q.trace(format, args...)
	}
}

// Serve binds the Q server port and also registers with the allocator at
// allocatorAddr (empty to skip); it blocks its process.
func (q *QServer) Serve(env transport.Env, port int, allocatorAddr string, ready func(addr string)) error {
	l, err := env.Listen(port)
	if err != nil {
		return fmt.Errorf("rmf qserver %s: listen: %w", q.Resource, err)
	}
	q.Hold(l)
	if allocatorAddr != "" {
		if err := RegisterResource(env, allocatorAddr, q.Resource, l.Addr(), q.Cluster, q.CPUs); err != nil {
			_ = l.Close(env)
			return fmt.Errorf("rmf qserver %s: register: %w", q.Resource, err)
		}
	}
	if ready != nil {
		ready(l.Addr())
	}
	transport.Serve(env, l, "qserver:conn", q.handle)
	return nil
}

// handle serves one Q server session (nexus.ServeSession). The caller's
// trace context, adopted per request, parents the spans the handler and the
// processes it spawns open under the submitting job.
func (q *QServer) handle(env transport.Env, c transport.Conn) {
	nexus.ServeSession(env, &q.Bound, c, "rmf", q.serve)
}

// serve answers one Q server request.
func (q *QServer) serve(env transport.Env, op int32, req, resp *nexus.Buffer) {
	switch op {
	case opSubmit:
		q.handleSubmit(env, req, resp)
	case opStatus:
		id, err := req.GetString()
		if err != nil {
			nexus.PutStatus(resp, err)
			break
		}
		q.putStatus(env, resp, id, 0)
	case opAwait:
		id, e1 := req.GetString()
		hold, e2 := req.GetInt64()
		if e1 != nil || e2 != nil || hold < 0 {
			nexus.PutStatus(resp, fmt.Errorf("rmf: malformed await"))
			break
		}
		q.putStatus(env, resp, id, min(time.Duration(hold), maxAwaitHold))
	default:
		nexus.PutStatus(resp, fmt.Errorf("rmf: unknown qserver op %d", op))
	}
}

// putStatus answers opStatus and opAwait: the process's state and failure
// message, read once it is terminal or hold has passed, whichever is first.
func (q *QServer) putStatus(env transport.Env, resp *nexus.Buffer, id string, hold time.Duration) {
	q.mu.Lock()
	rec, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		nexus.PutStatus(resp, fmt.Errorf("%w: %s", ErrUnknownJob, id))
		return
	}
	if hold > 0 && !rec.state.ended() {
		if rec.ended == nil {
			rec.ended = env.NewQueue()
		}
		ended := rec.ended
		q.mu.Unlock()
		ended.GetTimeout(env, hold) // nothing is ever Put: it returns on Close or expiry
		q.mu.Lock()
	}
	state, msg := rec.state, rec.errMsg
	q.mu.Unlock()
	resp.PutBool(true)
	resp.PutInt32(int32(state))
	resp.PutString(msg)
}

// handleSubmit decodes a submission, creates the job process, and replies
// with the job id. "The Q server receives the job request from the Q client
// and creates job processes according to the job type."
func (q *QServer) handleSubmit(env transport.Env, req *nexus.Buffer, resp *nexus.Buffer) {
	executable, e1 := req.GetString()
	nargs, e2 := req.GetInt32()
	// An argument costs at least its 4-byte length prefix and an environment
	// entry two of them, so a count the frame cannot hold is refused before it
	// sizes an allocation.
	if e1 != nil || e2 != nil || nargs < 0 || int(nargs) > req.Remaining()/4 {
		nexus.PutStatus(resp, fmt.Errorf("rmf: malformed submit"))
		return
	}
	args := make([]string, nargs)
	var err error
	for i := range args {
		if args[i], err = req.GetString(); err != nil {
			nexus.PutStatus(resp, err)
			return
		}
	}
	nenv, err := req.GetInt32()
	if err != nil || nenv < 0 || int(nenv) > req.Remaining()/8 {
		nexus.PutStatus(resp, fmt.Errorf("rmf: malformed environment"))
		return
	}
	envMap := make(map[string]string, nenv)
	for i := int32(0); i < nenv; i++ {
		k, e1 := req.GetString()
		v, e2 := req.GetString()
		if e1 != nil || e2 != nil {
			nexus.PutStatus(resp, fmt.Errorf("rmf: malformed environment"))
			return
		}
		envMap[k] = v
	}
	stdinURL, e1 := req.GetString()
	stdoutURL, e2 := req.GetString()
	if e1 != nil || e2 != nil {
		nexus.PutStatus(resp, fmt.Errorf("rmf: malformed urls"))
		return
	}

	prog, ok := q.Registry.Lookup(executable)
	if !ok {
		nexus.PutStatus(resp, fmt.Errorf("rmf: %s: no such executable %q", q.Resource, executable))
		return
	}
	q.mu.Lock()
	q.nextID++
	id := fmt.Sprintf("%s.%d", q.Resource, q.nextID)
	rec := &jobRecord{id: id, state: StatePending}
	q.jobs[id] = rec
	q.mu.Unlock()
	q.tracef("qserver %s: job %s accepted (%s %v)", q.Resource, id, executable, args)

	// Lifecycle metrics for the monitoring plane: submissions and outcomes
	// as counters, concurrently-active jobs as a gauge. Handles are nil (and
	// every update a no-op) when tracing is off.
	var mActive *obs.Gauge
	var mDone, mFailed *obs.Counter
	parent := obs.CtxOf(env)
	var tcExec obs.TraceContext
	o := obs.From(env)
	if o != nil {
		o.EmitCtx(env.Now(), parent, "rmf", "spawn", q.Resource, obs.Str("job", id), obs.Str("exe", executable))
		// The exec span covers the process's whole server-side life: staging
		// in, the program itself, and staging out.
		tcExec = o.BeginChild(env.Now(), parent, "rmf", "exec", q.Resource, obs.Str("job", id))
		o.Metrics().Counter("rmf." + q.Resource + ".jobs_submitted").Add(1)
		mActive = o.Metrics().Gauge("rmf." + q.Resource + ".jobs_active")
		mDone = o.Metrics().Counter("rmf." + q.Resource + ".jobs_done")
		mFailed = o.Metrics().Counter("rmf." + q.Resource + ".jobs_failed")
	}
	env.Spawn("job:"+id, func(e transport.Env) {
		obs.SetCtx(e, tcExec)
		defer func() { o.EndSpan(e.Now(), tcExec, "rmf", "exec", q.Resource) }()
		ctx := &JobContext{JobID: id, Resource: q.Resource, Args: args, Env: envMap, Trace: tcExec}
		// Stage input via the URL's scheme: GASS for small control files, as
		// the paper's Q system does, or the gridftp bulk data plane
		// (parallel streams, restart markers) for x-gridftp URLs.
		if stdinURL != "" {
			data, err := stageIn(e, stdinURL)
			if err != nil {
				q.finish(rec, fmt.Errorf("stage in: %w", err))
				mFailed.Add(1)
				return
			}
			ctx.Stdin = data
		}
		q.mu.Lock()
		rec.state = StateActive
		q.mu.Unlock()
		mActive.Add(1)
		q.tracef("qserver %s: job %s active", q.Resource, id)
		runErr := prog(e, ctx)
		if stdoutURL != "" {
			if err := stageOut(e, stdoutURL, ctx.Stdout.Bytes()); err != nil && runErr == nil {
				runErr = fmt.Errorf("stage out: %w", err)
			}
		}
		q.finish(rec, runErr)
		mActive.Add(-1)
		if runErr != nil {
			mFailed.Add(1)
		} else {
			mDone.Add(1)
		}
	})
	resp.PutBool(true)
	resp.PutString(id)
}

// stageIn fetches a staging URL by scheme: x-gridftp URLs ride the bulk data
// plane, everything else the GASS file service.
func stageIn(env transport.Env, url string) ([]byte, error) {
	if gridftp.IsURL(url) {
		return gridftp.Fetch(env, url)
	}
	return gass.Fetch(env, url)
}

// stageOut publishes job output to a staging URL by scheme.
func stageOut(env transport.Env, url string, data []byte) error {
	if gridftp.IsURL(url) {
		return gridftp.Publish(env, url, data)
	}
	return gass.Publish(env, url, data)
}

func (q *QServer) finish(rec *jobRecord, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if rec.ended != nil {
		rec.ended.Close() // wakes every opAwait parked on this process
	}
	if err != nil {
		rec.state = StateFailed
		rec.errMsg = err.Error()
		q.tracef("qserver %s: job %s failed: %v", q.Resource, rec.id, err)
		return
	}
	rec.state = StateDone
	q.tracef("qserver %s: job %s done", q.Resource, rec.id)
}
