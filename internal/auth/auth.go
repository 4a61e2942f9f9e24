// Package auth provides the mutual authentication the gatekeeper performs
// before accepting a job request, standing in for the Globus Security
// Infrastructure (GSI). Instead of X.509 proxy certificates it uses a
// shared-secret HMAC challenge/response: both sides prove possession of the
// subject's key without sending it, and each verifies the other — the
// property GRAM relies on (the user trusts the gatekeeper host; the
// gatekeeper maps the subject to a local account).
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// ErrDenied is returned when authentication fails.
var ErrDenied = errors.New("auth: authentication failed")

const nonceLen = 32

// maxFrame bounds one handshake frame, which carries a subject and a nonce
// or a MAC.
const maxFrame = 1 << 20

// Credential is a subject identity with its secret key.
type Credential struct {
	// Subject names the identity, e.g. "/O=Grid/OU=RWCP/CN=yoshio".
	Subject string
	// Key is the shared secret.
	Key []byte
}

// NewCredential generates a credential with a random key.
func NewCredential(subject string) (Credential, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return Credential{}, err
	}
	return Credential{Subject: subject, Key: key}, nil
}

// Keyring maps subjects to keys on the verifying side (the gatekeeper's
// grid-mapfile analogue).
type Keyring struct {
	keys map[string][]byte
	// Local maps an authenticated subject to a local account name.
	local map[string]string
}

// NewKeyring creates an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{keys: make(map[string][]byte), local: make(map[string]string)}
}

// Grant registers a subject's key and local account mapping.
func (kr *Keyring) Grant(cred Credential, localUser string) {
	kr.keys[cred.Subject] = append([]byte(nil), cred.Key...)
	kr.local[cred.Subject] = localUser
}

// LocalUser returns the account a subject maps to.
func (kr *Keyring) LocalUser(subject string) (string, bool) {
	u, ok := kr.local[subject]
	return u, ok
}

func mac(key []byte, role string, a, b []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(role))
	m.Write(a)
	m.Write(b)
	return m.Sum(nil)
}

// Initiate performs the client half of the handshake on an established
// connection: send subject + nonce, verify the server's proof, return our
// own proof.
func Initiate(env transport.Env, conn transport.Conn, cred Credential) error {
	st := transport.Stream{Env: env, Conn: conn}
	nc := make([]byte, nonceLen)
	if _, err := rand.Read(nc); err != nil {
		return err
	}
	hello := nexus.NewBuffer()
	hello.PutString(cred.Subject)
	hello.PutBytes(nc)
	if err := nexus.WriteFrame(st, hello); err != nil {
		return err
	}
	resp, err := nexus.ReadFrame(st, maxFrame)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDenied, err)
	}
	ok, err := resp.GetBool()
	if err != nil || !ok {
		return ErrDenied
	}
	ns, err := resp.GetBytes()
	if err != nil {
		return err
	}
	proof, err := resp.GetBytes()
	if err != nil {
		return err
	}
	if !hmac.Equal(proof, mac(cred.Key, "server", nc, ns)) {
		return fmt.Errorf("%w: server proof invalid", ErrDenied)
	}
	final := nexus.NewBuffer()
	final.PutBytes(mac(cred.Key, "client", ns, nc))
	if err := nexus.WriteFrame(st, final); err != nil {
		return err
	}
	done, err := nexus.ReadFrame(st, maxFrame)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDenied, err)
	}
	if ok, err := done.GetBool(); err != nil || !ok {
		return ErrDenied
	}
	return nil
}

// Accept performs the server half: read the client hello, prove key
// possession, verify the client's proof, and return the authenticated
// subject.
func Accept(env transport.Env, conn transport.Conn, kr *Keyring) (subject string, err error) {
	st := transport.Stream{Env: env, Conn: conn}
	hello, err := nexus.ReadFrame(st, maxFrame)
	if err != nil {
		return "", err
	}
	subject, err = hello.GetString()
	if err != nil {
		return "", err
	}
	nc, err := hello.GetBytes()
	if err != nil {
		return "", err
	}
	key, known := kr.keys[subject]
	deny := func() (string, error) {
		resp := nexus.NewBuffer()
		resp.PutBool(false)
		_ = nexus.WriteFrame(st, resp)
		return "", fmt.Errorf("%w: subject %q", ErrDenied, subject)
	}
	if !known {
		return deny()
	}
	ns := make([]byte, nonceLen)
	if _, err := rand.Read(ns); err != nil {
		return "", err
	}
	resp := nexus.NewBuffer()
	resp.PutBool(true)
	resp.PutBytes(ns)
	resp.PutBytes(mac(key, "server", nc, ns))
	if err := nexus.WriteFrame(st, resp); err != nil {
		return "", err
	}
	final, err := nexus.ReadFrame(st, maxFrame)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrDenied, err)
	}
	proof, err := final.GetBytes()
	if err != nil {
		return "", err
	}
	done := nexus.NewBuffer()
	if !hmac.Equal(proof, mac(key, "client", ns, nc)) {
		done.PutBool(false)
		_ = nexus.WriteFrame(st, done)
		return "", fmt.Errorf("%w: client proof invalid for %q", ErrDenied, subject)
	}
	done.PutBool(true)
	if err := nexus.WriteFrame(st, done); err != nil {
		return "", err
	}
	return subject, nil
}
