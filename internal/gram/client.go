package gram

import (
	"fmt"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/nexus"
	"nxcluster/internal/rsl"
	"nxcluster/internal/transport"
)

// dialAuthed opens an authenticated gatekeeper connection.
func dialAuthed(env transport.Env, gkAddr string, cred auth.Credential) (transport.Conn, error) {
	c, err := env.Dial(gkAddr)
	if err != nil {
		return nil, fmt.Errorf("gram: dial gatekeeper %s: %w", gkAddr, err)
	}
	if err := auth.Initiate(env, c, cred); err != nil {
		_ = c.Close(env)
		return nil, err
	}
	return c, nil
}

func request(env transport.Env, gkAddr string, cred auth.Credential, req *nexus.Buffer) (*nexus.Buffer, error) {
	c, err := dialAuthed(env, gkAddr, cred)
	if err != nil {
		return nil, err
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
		return nil, fmt.Errorf("gram: %s: %s", gkAddr, msg)
	}
	return resp, nil
}

// Submit sends an RSL job request to a gatekeeper (like globusrun) and
// returns the job contact.
func Submit(env transport.Env, gkAddr string, cred auth.Credential, rslText string) (string, error) {
	req := nexus.NewBuffer()
	req.PutInt32(opSubmit)
	req.PutString(rslText)
	resp, err := request(env, gkAddr, cred, req)
	if err != nil {
		return "", err
	}
	return resp.GetString()
}

// Status queries a job's state.
func Status(env transport.Env, gkAddr string, cred auth.Credential, contact string) (state int32, msg string, err error) {
	req := nexus.NewBuffer()
	req.PutInt32(opStatus)
	req.PutString(contact)
	resp, err := request(env, gkAddr, cred, req)
	if err != nil {
		return 0, "", err
	}
	if state, err = resp.GetInt32(); err != nil {
		return 0, "", err
	}
	if msg, err = resp.GetString(); err != nil {
		return 0, "", err
	}
	return state, msg, nil
}

// stateDone/stateFailed mirror rmf.State without importing it here (the
// wire carries the integer).
const (
	stateDone   = int32(2)
	stateFailed = int32(3)
)

// Wait polls a job until it completes or timeout expires (0 = no limit).
func Wait(env transport.Env, gkAddr string, cred auth.Credential, contact string, poll, timeout time.Duration) error {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	deadline := env.Now() + timeout
	for {
		state, msg, err := Status(env, gkAddr, cred, contact)
		if err != nil {
			return err
		}
		switch state {
		case stateDone:
			return nil
		case stateFailed:
			return fmt.Errorf("gram: job %s failed: %s", contact, msg)
		}
		if timeout > 0 && env.Now() > deadline {
			return fmt.Errorf("gram: job %s timed out", contact)
		}
		env.Sleep(poll)
	}
}

// Cancel aborts a job; only the submitting subject's credential works.
func Cancel(env transport.Env, gkAddr string, cred auth.Credential, contact string) error {
	req := nexus.NewBuffer()
	req.PutInt32(opCancel)
	req.PutString(contact)
	_, err := request(env, gkAddr, cred, req)
	return err
}

// List returns the credential subject's job contacts at a gatekeeper.
func List(env transport.Env, gkAddr string, cred auth.Credential) ([]string, error) {
	req := nexus.NewBuffer()
	req.PutInt32(opList)
	resp, err := request(env, gkAddr, cred, req)
	if err != nil {
		return nil, err
	}
	n, err := resp.GetInt32()
	if err != nil {
		return nil, err
	}
	// Every contact costs at least its 4-byte length prefix.
	if n < 0 || int(n) > resp.Remaining()/4 {
		return nil, fmt.Errorf("gram: malformed list reply: %d contacts in %d bytes", n, resp.Remaining())
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = resp.GetString(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SubJob is one component of a co-allocated multirequest.
type SubJob struct {
	// Gatekeeper is the component's gatekeeper address.
	Gatekeeper string
	// Contact is the component's job contact.
	Contact string
}

// SubmitMulti performs DUROC-style co-allocation of an RSL multirequest:
// each subrequest names its resourceManagerContact, resolved through
// contacts to a gatekeeper address; all components are submitted before any
// is waited on, so they start together as MPICH-G requires.
func SubmitMulti(env transport.Env, cred auth.Credential, spec *rsl.Spec, contacts map[string]string) ([]SubJob, error) {
	if !spec.IsMulti() {
		return nil, fmt.Errorf("%w: SubmitMulti wants a + multirequest", ErrBadRequest)
	}
	var jobs []SubJob
	for i, sub := range spec.Multi {
		rm := sub.GetString("resourceManagerContact", "")
		if rm == "" {
			return nil, fmt.Errorf("%w: subrequest %d missing resourceManagerContact", ErrBadRequest, i)
		}
		gk, ok := contacts[rm]
		if !ok {
			return nil, fmt.Errorf("%w: no gatekeeper known for contact %q", ErrBadRequest, rm)
		}
		contact, err := Submit(env, gk, cred, sub.String())
		if err != nil {
			return jobs, fmt.Errorf("gram: subrequest %d (%s): %w", i, rm, err)
		}
		jobs = append(jobs, SubJob{Gatekeeper: gk, Contact: contact})
	}
	return jobs, nil
}

// WaitMulti waits for every component of a co-allocated job.
func WaitMulti(env transport.Env, cred auth.Credential, jobs []SubJob, poll, timeout time.Duration) error {
	var firstErr error
	for _, j := range jobs {
		if err := Wait(env, j.Gatekeeper, cred, j.Contact, poll, timeout); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
