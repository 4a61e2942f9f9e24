package gram

import (
	"crypto/sha256"
	"fmt"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// dialAuthed opens an authenticated gatekeeper connection: a new session.
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

// sessionKey names the sessions a call may reuse: from which host, to
// which gatekeeper, as whom, and with which key. The key's digest is part
// of it so that a session is only reused by the credential that
// authenticated it: a caller with the right subject and a wrong key dials
// and runs the handshake itself, and is refused.
type sessionKey struct {
	host, addr, subject string
	key                 [sha256.Size]byte
}

// request is one control exchange with the gatekeeper at gkAddr on a
// session authenticated as cred, kept in the table of the env's network
// (nexus.Request).
func request(env transport.Env, gkAddr string, cred auth.Credential, req *nexus.Buffer) (*nexus.Buffer, error) {
	key := sessionKey{env.Hostname(), gkAddr, cred.Subject, sha256.Sum256(cred.Key)}
	return nexus.Request(env, transport.SessionsOf(env), key, gkAddr,
		func() (transport.Conn, error) { return dialAuthed(env, gkAddr, cred) }, req)
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
	if err == nil {
		state, err = resp.GetInt32()
	}
	if err == nil {
		msg, err = resp.GetString()
	}
	if err != nil {
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

// List returns the credential subject's job contacts at a gatekeeper.
func List(env transport.Env, gkAddr string, cred auth.Credential) (contacts []string, err error) {
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
	contacts = make([]string, n)
	for i := range contacts {
		if contacts[i], err = resp.GetString(); err != nil {
			return nil, err
		}
	}
	return contacts, nil
}
