package auth

import (
	"bytes"
	"runtime"
	"testing"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// memConn serves Accept a fixed input stream and keeps what it writes.
type memConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(env transport.Env, b []byte) (int, error)  { return c.in.Read(b) }
func (c *memConn) Write(env transport.Env, b []byte) (int, error) { return c.out.Write(b) }
func (c *memConn) Close(env transport.Env) error                  { return nil }
func (c *memConn) LocalAddr() string                              { return "mem:1" }
func (c *memConn) RemoteAddr() string                             { return "mem:2" }

// helloFrame is a client hello body: a subject and a nonce.
func helloFrame(subject string, nonce []byte) []byte {
	b := nexus.NewBuffer()
	b.PutString(subject)
	b.PutBytes(nonce)
	return b.Bytes()
}

// FuzzAuthAccept feeds the gatekeeper's half of the handshake an arbitrary
// hello and proof: each framed as a client sends it, or (raw) the two bodies
// back to back as the stream itself, so the length prefixes are the
// fuzzer's too. Accept must never panic, never authenticate (the server's
// nonce is fresh, so no fixed proof can match it), and never allocate much
// more than the bytes it was sent: nexus.ReadFrame allocates at most 64 KiB
// of a frame before its bytes arrive, and grows by doubling as they do.
func FuzzAuthAccept(f *testing.F) {
	const subject = "/O=Grid/CN=fuzz"
	nonce := make([]byte, nonceLen)
	f.Add(helloFrame(subject, nonce), make([]byte, 36), false)
	f.Add(helloFrame("/O=Grid/CN=stranger", nonce), []byte{}, false)
	f.Add(helloFrame(subject, nil), []byte{0, 0, 0, 0}, false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{}, false)
	f.Add([]byte{0, 0x10, 0, 0}, []byte{}, true)
	f.Add([]byte{0, 0x80, 0, 0}, []byte{}, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{}, true)
	f.Fuzz(func(t *testing.T, hello, proof []byte, raw bool) {
		kr := NewKeyring()
		kr.Grant(Credential{Subject: subject, Key: []byte("fuzz key")}, "fuzz")
		var in bytes.Buffer
		if raw {
			in.Write(hello)
			in.Write(proof)
		} else {
			_ = nexus.WriteFrame(&in, nexus.FromBytes(hello))
			_ = nexus.WriteFrame(&in, nexus.FromBytes(proof))
		}
		c := &memConn{in: bytes.NewReader(in.Bytes())}
		env := transport.NewTCPEnv("gatekeeper")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		who, err := Accept(env, c, kr)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Accept authenticated %q from a fixed proof", who)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*(64<<10)+64<<10+4*uint64(in.Len()) {
			t.Fatalf("a %d-byte handshake made Accept allocate %d bytes", in.Len(), grew)
		}
	})
}
