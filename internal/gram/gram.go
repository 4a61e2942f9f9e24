// Package gram implements the Globus Resource Allocation Manager layer the
// paper's RMF plugs into: a gatekeeper daemon that authenticates job
// requests, parses their RSL, and forks a job manager to run them.
//
// Two job manager types exist, selected by the RSL jobmanager attribute:
//
//   - "fork" runs the processes directly on the gatekeeper's host, the
//     plain Globus behaviour;
//   - "rmf" is the paper's contribution hook: the job manager creates a Q
//     client which allocates resources inside the firewall via the RMF
//     resource allocator and submits the processes to their Q servers
//     (paper Figure 2: "when the RMF type GRAM is used, computing resources
//     inside the firewall can be utilized via a Globus gatekeeper which is
//     running outside the firewall"). The gatekeeper replies to the submit
//     once that placement is done, so a client never polls a job that is
//     not yet on its Q servers.
//
// An authenticated gatekeeper connection is a session (nexus.Request on the
// client, transport.Bound.Session on the gatekeeper): the handshake runs
// once, and the connection then carries request after request. Submit,
// Status and List keep idle sessions per caller host, gatekeeper address,
// credential subject and a digest of the credential's key, so only the
// credential that authenticated a session reuses it. A reused session that
// fails before any reply byte is retried once on a new one. A gatekeeper
// that stops through Close never acted on such a request; one that dies
// between acting on a Submit and replying (placement included) did, and the
// resent Submit runs the job a second time: a known limit until the
// gatekeeper daemon drains through Close on SIGTERM.
package gram

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/rmf"
	"nxcluster/internal/rsl"
	"nxcluster/internal/transport"
)

// DefaultPort is the conventional gatekeeper port (Globus used 2119).
const DefaultPort = 2119

// Wire ops on an authenticated gatekeeper connection.
const (
	opSubmit = int32(1)
	opStatus = int32(2)
	opList   = int32(4)
)

// ErrBadRequest reports an unusable job request.
var ErrBadRequest = errors.New("gram: bad request")

// Config wires a gatekeeper's dependencies.
type Config struct {
	// Keyring authorizes submitting subjects.
	Keyring *auth.Keyring
	// Registry resolves executables for fork-type jobs.
	Registry *rmf.Registry
	// AllocatorAddr is the RMF resource allocator for rmf-type jobs.
	AllocatorAddr string
	// DefaultJobManager applies when the RSL names none ("fork").
	DefaultJobManager string
}

// managedJob is a job manager's record.
type managedJob struct {
	contact string
	subject string
	state   rmf.State
	errMsg  string
	pending int // fork jobs: processes still running
}

// Gatekeeper authenticates and dispatches job requests.
type Gatekeeper struct {
	transport.Bound
	cfg     Config
	mu      sync.Mutex
	nextJob int
	jobs    map[string]*managedJob
	trace   func(format string, args ...interface{})
}

// NewGatekeeper creates a gatekeeper.
func NewGatekeeper(cfg Config) *Gatekeeper {
	if cfg.DefaultJobManager == "" {
		cfg.DefaultJobManager = "fork"
	}
	return &Gatekeeper{cfg: cfg, jobs: make(map[string]*managedJob)}
}

// SetTrace installs a tracing callback (the Figure 2 renderer).
func (g *Gatekeeper) SetTrace(fn func(string, ...interface{})) { g.trace = fn }

func (g *Gatekeeper) tracef(format string, args ...interface{}) {
	if g.trace != nil {
		g.trace(format, args...)
	}
}

// Serve binds the gatekeeper port and accepts submissions; it blocks its
// process.
func (g *Gatekeeper) Serve(env transport.Env, port int, ready func(addr string)) error {
	return g.Listen(env, port, "gram", "gatekeeper:conn", ready, g.handle)
}

// handle serves one session (transport.Bound.Session): it authenticates
// the connection once, then answers request frames until EOF, a frame that
// does not decode (answered, then the session ends), or Close.
func (g *Gatekeeper) handle(env transport.Env, c transport.Conn) {
	st := transport.Stream{Env: env, Conn: c}
	var subject string
	var req *nexus.Buffer
	authed := false
	g.Session(env, c, func() (err error) {
		if !authed {
			if subject, err = auth.Accept(env, c, g.cfg.Keyring); err != nil {
				g.tracef("gatekeeper: authentication failed: %v", err)
				return err
			}
			authed = true
			local, _ := g.cfg.Keyring.LocalUser(subject)
			g.tracef("gatekeeper: authenticated %s (local user %s)", subject, local)
		}
		req, err = nexus.ReadFrame(st, 0)
		return err
	}, func() bool {
		// Adopt the submitter's trace context from connection baggage:
		// job manager processes spawned below inherit it, chaining the
		// RSL submit leg into the submitter's trace. A kept session's
		// client sets it before each request.
		obs.SetCtx(env, obs.BaggageOf(c))
		resp, ok := g.serve(env, subject, req)
		return nexus.WriteFrame(st, resp) == nil && ok
	})
}

// serve answers one request. ok is false when the request did not decode;
// the reply then carries why.
func (g *Gatekeeper) serve(env transport.Env, subject string, req *nexus.Buffer) (resp *nexus.Buffer, ok bool) {
	resp = nexus.NewBuffer()
	op, err := req.GetInt32()
	if err != nil {
		nexus.PutStatus(resp, err)
		return resp, false
	}
	switch op {
	case opSubmit:
		rslText, err := req.GetString()
		if err != nil {
			nexus.PutStatus(resp, err)
			return resp, false
		}
		contact, err := g.submit(env, subject, rslText)
		if err != nil {
			nexus.PutStatus(resp, err)
			break
		}
		resp.PutBool(true)
		resp.PutString(contact)
	case opStatus:
		contact, err := req.GetString()
		if err != nil {
			nexus.PutStatus(resp, err)
			return resp, false
		}
		state, msg, err := g.jobStatus(contact)
		if err != nil {
			nexus.PutStatus(resp, err)
			break
		}
		resp.PutBool(true)
		resp.PutInt32(int32(state))
		resp.PutString(msg)
	case opList:
		contacts := g.listJobs(subject)
		resp.PutBool(true)
		resp.PutInt32(int32(len(contacts)))
		for _, c := range contacts {
			resp.PutString(c)
		}
	default:
		nexus.PutStatus(resp, fmt.Errorf("gram: unknown op %d", op))
	}
	return resp, true
}

// submit parses the RSL and starts the job manager (Figure 2 step 2: "the
// job manager invoked by the gatekeeper creates a Q client process"); an
// rmf job is placed before submit returns.
func (g *Gatekeeper) submit(env transport.Env, subject, rslText string) (string, error) {
	spec, err := rsl.Parse(rslText)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if spec.IsMulti() {
		return "", fmt.Errorf("%w: multirequests are not supported", ErrBadRequest)
	}
	executable := spec.GetString("executable", "")
	if executable == "" {
		return "", fmt.Errorf("%w: missing executable", ErrBadRequest)
	}
	count := spec.GetInt("count", 1)
	if count < 1 {
		return "", fmt.Errorf("%w: bad count", ErrBadRequest)
	}
	jmType := spec.GetString("jobmanager", g.cfg.DefaultJobManager)
	switch {
	case jmType == "rmf" && g.cfg.AllocatorAddr == "":
		return "", fmt.Errorf("%w: gatekeeper has no RMF allocator configured", ErrBadRequest)
	case jmType != "rmf" && jmType != "fork":
		return "", fmt.Errorf("%w: unknown jobmanager %q", ErrBadRequest, jmType)
	}
	envPairs, err := spec.Pairs("environment")
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	envMap := make(map[string]string, len(envPairs))
	for _, kv := range envPairs {
		envMap[kv[0]] = kv[1]
	}
	procSpec := rmf.ProcessSpec{
		Executable: executable,
		Args:       spec.GetStrings("arguments"),
		Env:        envMap,
		StdinURL:   spec.GetString("stdin", ""),
		StdoutURL:  spec.GetString("stdout", ""),
	}

	g.mu.Lock()
	g.nextJob++
	contact := fmt.Sprintf("job-%d", g.nextJob)
	job := &managedJob{contact: contact, subject: subject, state: rmf.StatePending}
	g.jobs[contact] = job
	g.mu.Unlock()
	g.tracef("gatekeeper: job request %s from %s: %s x%d via %s jobmanager",
		contact, subject, executable, count, jmType)

	if jmType == "fork" {
		g.startFork(env, job, procSpec, count)
	} else {
		g.startRMF(env, job, procSpec, count, spec.GetString("cluster", ""))
	}
	return contact, nil
}

// startFork runs count processes on the gatekeeper's own host.
func (g *Gatekeeper) startFork(env transport.Env, job *managedJob, spec rmf.ProcessSpec, count int) {
	prog, ok := g.cfg.Registry.Lookup(spec.Executable)
	if !ok {
		g.fail(job, fmt.Errorf("no such executable %q", spec.Executable))
		return
	}
	g.mu.Lock()
	job.state = rmf.StateActive
	job.pending = count
	g.mu.Unlock()
	for i := 0; i < count; i++ {
		i := i
		env.Spawn(fmt.Sprintf("fork:%s:%d", job.contact, i), func(e transport.Env) {
			o := obs.From(e)
			tc := o.BeginSpan(e.Now(), obs.CtxOf(e), "gram", "fork", e.Hostname(),
				obs.Str("contact", job.contact), obs.Int("proc", int64(i)))
			obs.SetCtx(e, tc)
			ctx := &rmf.JobContext{
				JobID:    fmt.Sprintf("%s/%d", job.contact, i),
				Resource: e.Hostname(),
				Args:     spec.Args,
				Env:      spec.Env,
				Trace:    tc,
			}
			err := prog(e, ctx)
			o.EndSpan(e.Now(), tc, "gram", "fork", e.Hostname())
			g.mu.Lock()
			defer g.mu.Unlock()
			job.pending--
			if err != nil && job.errMsg == "" {
				job.errMsg = err.Error()
			}
			if job.pending == 0 && job.state == rmf.StateActive {
				if job.errMsg != "" {
					job.state = rmf.StateFailed
				} else {
					job.state = rmf.StateDone
				}
			}
		})
	}
}

// startRMF places the job through the paper's Q system before the
// gatekeeper replies: the Q client allocates slots and submits each process
// to its Q server (Figure 2 steps 3-5), so a job whose contact the client
// holds already runs inside the firewall. A placement failure leaves the job
// FAILED with the rmf error. The job manager spawned after placement only
// waits for the processes, marks the job DONE or FAILED and returns the
// slots.
func (g *Gatekeeper) startRMF(env transport.Env, job *managedJob, spec rmf.ProcessSpec, count int, cluster string) {
	g.tracef("job manager %s: creating Q client", job.contact)
	// The job manager span covers the job's whole gatekeeper-side life
	// (Q client creation through the slots' release). It roots the trace
	// when the submitter was untraced and joins theirs otherwise.
	o := obs.From(env)
	defer obs.SetCtx(env, obs.CtxOf(env))
	tc := o.BeginSpan(env.Now(), obs.CtxOf(env), "gram", "jobmanager", env.Hostname(),
		obs.Str("contact", job.contact), obs.Int("count", int64(count)))
	obs.SetCtx(env, tc)
	h, err := rmf.SubmitJob(env, g.cfg.AllocatorAddr, rmf.JobRequest{
		Count:   count,
		Cluster: cluster,
		Spec:    spec,
	})
	if err != nil {
		g.fail(job, err)
		o.EndSpan(env.Now(), tc, "gram", "jobmanager", env.Hostname())
		return
	}
	g.mu.Lock()
	job.state = rmf.StateActive
	g.mu.Unlock()
	env.Spawn("jobmanager:"+job.contact, func(e transport.Env) {
		obs.SetCtx(e, tc)
		defer func() { o.EndSpan(e.Now(), tc, "gram", "jobmanager", e.Hostname()) }()
		// The job is DONE (or FAILED) as its last process ends: the slots
		// go back to the allocator after that, off the client's path.
		if err := h.Await(e, 10*time.Millisecond, 0); err != nil {
			g.fail(job, err)
		} else {
			g.mu.Lock()
			job.state = rmf.StateDone
			g.mu.Unlock()
			g.tracef("job manager %s: all processes done", job.contact)
		}
		h.ReleaseSlots(e)
	})
}

func (g *Gatekeeper) fail(job *managedJob, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	job.state = rmf.StateFailed
	job.errMsg = err.Error()
	g.tracef("job %s failed: %v", job.contact, err)
}

// listJobs returns the subject's job contacts, sorted.
func (g *Gatekeeper) listJobs(subject string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for contact, job := range g.jobs {
		if job.subject == subject {
			out = append(out, contact)
		}
	}
	sort.Strings(out)
	return out
}

func (g *Gatekeeper) jobStatus(contact string) (rmf.State, string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	job, ok := g.jobs[contact]
	if !ok {
		return rmf.StateFailed, "", fmt.Errorf("gram: unknown job contact %q", contact)
	}
	return job.state, job.errMsg, nil
}
