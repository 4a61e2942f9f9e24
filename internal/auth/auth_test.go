package auth

import (
	"errors"
	"testing"

	"nxcluster/internal/transport"
)

// pair establishes a loopback connection and runs client/server halves.
func runHandshake(t *testing.T, cred Credential, kr *Keyring) (clientErr error, subject string, serverErr error) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	srvDone := make(chan struct{})
	env.Spawn("server", func(e transport.Env) {
		defer close(srvDone)
		c, err := l.Accept(e)
		if err != nil {
			serverErr = err
			return
		}
		subject, serverErr = Accept(e, c, kr)
		_ = c.Close(e)
	})
	c, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	clientErr = Initiate(env, c, cred)
	_ = c.Close(env)
	<-srvDone
	return clientErr, subject, serverErr
}

func TestMutualAuthenticationSucceeds(t *testing.T) {
	cred, err := NewCredential("/O=Grid/OU=RWCP/CN=yoshio")
	if err != nil {
		t.Fatal(err)
	}
	kr := NewKeyring()
	kr.Grant(cred, "yoshio")
	cErr, subject, sErr := runHandshake(t, cred, kr)
	if cErr != nil || sErr != nil {
		t.Fatalf("client=%v server=%v", cErr, sErr)
	}
	if subject != cred.Subject {
		t.Fatalf("subject = %q", subject)
	}
	if u, ok := kr.LocalUser(subject); !ok || u != "yoshio" {
		t.Fatalf("LocalUser = %q, %v", u, ok)
	}
}

func TestUnknownSubjectDenied(t *testing.T) {
	cred, _ := NewCredential("/CN=stranger")
	kr := NewKeyring()
	cErr, _, sErr := runHandshake(t, cred, kr)
	if !errors.Is(sErr, ErrDenied) {
		t.Fatalf("server err = %v, want ErrDenied", sErr)
	}
	if !errors.Is(cErr, ErrDenied) {
		t.Fatalf("client err = %v, want ErrDenied", cErr)
	}
}

func TestWrongKeyDenied(t *testing.T) {
	cred, _ := NewCredential("/CN=user")
	imposter := Credential{Subject: cred.Subject, Key: make([]byte, 32)} // zero key
	kr := NewKeyring()
	kr.Grant(cred, "user")
	cErr, _, sErr := runHandshake(t, imposter, kr)
	// The imposter detects the server proof mismatch first (it cannot
	// verify the real key's MAC), or the server rejects the client proof.
	if cErr == nil && sErr == nil {
		t.Fatal("imposter authenticated")
	}
}

func TestDistinctCredentialsHaveDistinctKeys(t *testing.T) {
	a, _ := NewCredential("/CN=a")
	b, _ := NewCredential("/CN=b")
	if string(a.Key) == string(b.Key) {
		t.Fatal("two generated credentials share a key")
	}
	if len(a.Key) < 16 {
		t.Fatal("key too short")
	}
}
