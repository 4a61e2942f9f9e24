package gram

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
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
// session authenticated as cred, with decode applied to the reply's
// results. The session is an idle one from the env's table when there is
// one, and a new one otherwise. After a complete reply, true or false, whose
// results decode, the session is kept for the next call; after any other
// error it is closed. A request that fails on a reused session before a
// byte of its reply arrives is sent once more, on a new session: a
// gatekeeper that stops through Close ends sessions only between requests,
// so it did not act on it (one that dies mid-request may have; see the
// package doc).
func request(env transport.Env, gkAddr string, cred auth.Credential, req *nexus.Buffer, decode func(*nexus.Buffer) error) error {
	table := transport.SessionsOf(env)
	key := sessionKey{env.Hostname(), gkAddr, cred.Subject, sha256.Sum256(cred.Key)}
	if c := table.Take(key); c != nil {
		// The gatekeeper adopts the trace of each request from the
		// connection's baggage; a new session carries the dialer's.
		obs.SetBaggage(c, obs.CtxOf(env))
		replied, err := exchange(env, c, req, decode)
		if err == nil || replied {
			return keepOrClose(env, table, key, c, gkAddr, err)
		}
		_ = c.Close(env)
	}
	c, err := dialAuthed(env, gkAddr, cred)
	if err != nil {
		return err
	}
	_, err = exchange(env, c, req, decode)
	return keepOrClose(env, table, key, c, gkAddr, err)
}

// exchange writes req on the session c and reads and decodes its reply.
// replied reports whether any byte of the reply arrived.
func exchange(env transport.Env, c transport.Conn, req *nexus.Buffer, decode func(*nexus.Buffer) error) (replied bool, err error) {
	st := transport.Stream{Env: env, Conn: c}
	if err := nexus.WriteFrame(st, req); err != nil {
		return false, err
	}
	r := &replyReader{st: st}
	resp, err := nexus.ReadReply(r)
	if err == nil {
		err = decode(resp)
	}
	return r.got, err
}

// keepOrClose ends a call on session c: a nil err or a well-formed refusal
// keeps it idle under key (or closes it when the table is full), anything
// else closes it. It returns err, a refusal named after gkAddr.
func keepOrClose(env transport.Env, table *transport.Sessions, key sessionKey, c transport.Conn, gkAddr string, err error) error {
	var se *nexus.StatusError
	refused := errors.As(err, &se) && !se.Malformed
	if (err != nil && !refused) || !table.Keep(key, c) {
		_ = c.Close(env)
	}
	if se != nil {
		return fmt.Errorf("gram: %s: %w", gkAddr, se)
	}
	return err
}

// replyReader reads a session's reply and notes whether a byte arrived.
type replyReader struct {
	st  transport.Stream
	got bool
}

func (r *replyReader) Read(b []byte) (int, error) {
	n, err := r.st.Read(b)
	if n > 0 {
		r.got = true
	}
	return n, err
}

// Submit sends an RSL job request to a gatekeeper (like globusrun) and
// returns the job contact.
func Submit(env transport.Env, gkAddr string, cred auth.Credential, rslText string) (contact string, err error) {
	req := nexus.NewBuffer()
	req.PutInt32(opSubmit)
	req.PutString(rslText)
	err = request(env, gkAddr, cred, req, func(resp *nexus.Buffer) (err error) {
		contact, err = resp.GetString()
		return err
	})
	return contact, err
}

// Status queries a job's state.
func Status(env transport.Env, gkAddr string, cred auth.Credential, contact string) (state int32, msg string, err error) {
	req := nexus.NewBuffer()
	req.PutInt32(opStatus)
	req.PutString(contact)
	err = request(env, gkAddr, cred, req, func(resp *nexus.Buffer) (err error) {
		if state, err = resp.GetInt32(); err != nil {
			return err
		}
		msg, err = resp.GetString()
		return err
	})
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
	err = request(env, gkAddr, cred, req, func(resp *nexus.Buffer) error {
		n, err := resp.GetInt32()
		if err != nil {
			return err
		}
		// Every contact costs at least its 4-byte length prefix.
		if n < 0 || int(n) > resp.Remaining()/4 {
			return fmt.Errorf("gram: malformed list reply: %d contacts in %d bytes", n, resp.Remaining())
		}
		contacts = make([]string, n)
		for i := range contacts {
			if contacts[i], err = resp.GetString(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return contacts, nil
}
