package transport

import (
	"errors"
	"io"
	"time"
)

// Pump is one direction of a store-and-forward relay: what Relay does with
// each buffer it moves.
type Pump struct {
	// Buf is the relay buffer; each read-process-write cycle moves at most
	// len(Buf) bytes. On real TCP a read that fills it moves the rest of
	// the direction into the kernel (see Relay).
	Buf []byte
	// PerBuffer is the CPU time charged (Compute) per buffer relayed.
	PerBuffer time.Duration
	// Recv, when set, is told the size of each buffer as it lands, and Fwd,
	// when set, once that buffer has been written on.
	Recv, Fwd func(n int)
}

// Relay copies src to dst until src ends, exactly as
//
//	for {
//		n, err := src.Read(env, pump.Buf)
//		if n > 0 {
//			pump.Recv(n)
//			env.Compute(pump.PerBuffer)
//			dst.Write(env, pump.Buf[:n]) // a failure ends the relay
//			pump.Fwd(n)
//		}
//		if err != nil {
//			break
//		}
//	}
//
// and returns nil when src ended with io.EOF, the failure otherwise. It
// leaves both connections open. An environment that can run the cycle in
// place, without resuming the caller between buffers, does so (simnet's):
// Recv and Fwd must then never block. It hands back on EOF or failure only,
// so teardown stays with the caller.
//
// On real TCP (Linux), once a read fills Buf, the rest of the direction
// moves in the kernel with splice(2) when both legs are raw TCPEnv sockets
// and the pump has no PerBuffer charge and no Recv hook. Fwd is then told
// per 1 MiB moved or at the end of the stream; a reset still ends the relay
// with ErrReset, and a closed socket ends it as EOF does. Splicing costs a
// small message's round trip nothing measurable, but a spliced direction
// holds a pipe (two descriptors) for as long as it lives and its byte count
// lags. A direction that never fills Buf, such as one carrying only small
// messages, stays on the loop and pays neither.
func Relay(env Env, src, dst Conn, pump *Pump) error {
	if r, ok := env.(interface {
		Relay(src, dst Conn, pump *Pump) (bool, error)
	}); ok {
		if done, err := r.Relay(src, dst, pump); done {
			return err
		}
	}
	for {
		n, err := src.Read(env, pump.Buf)
		if n > 0 {
			if pump.Recv != nil {
				pump.Recv(n)
			}
			if pump.PerBuffer > 0 {
				env.Compute(pump.PerBuffer)
			}
			if _, werr := dst.Write(env, pump.Buf[:n]); werr != nil {
				return werr
			}
			if pump.Fwd != nil {
				pump.Fwd(n)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if n == len(pump.Buf) && pump.PerBuffer == 0 && pump.Recv == nil {
			if sc, dc := tcpSocket(src), tcpSocket(dst); sc != nil && dc != nil {
				return spliceRest(sc, dc, pump.Fwd)
			}
		}
	}
}

// ReadEach reads c into the slices fill hands out until fill returns nil or
// the stream ends:
//
//	for b := fill(0); b != nil; b = fill(n) {
//		n, err = c.Read(env, b)
//		if err != nil {
//			return err
//		}
//	}
//
// fill is told how many bytes arrived in the slice it handed out last (0 on
// the first call) and returns the next slice to fill. ReadEach returns nil
// when fill stopped it, and the error (io.EOF included) that ended the
// stream otherwise. An environment that can read in place, without resuming
// the caller between arrivals, does so (simnet's): fill must then never
// block. It hands back at the end only, so teardown stays with the caller.
func ReadEach(env Env, c Conn, fill func(n int) []byte) error {
	if r, ok := env.(interface {
		ReadEach(c Conn, fill func(n int) []byte) (bool, error)
	}); ok {
		if done, err := r.ReadEach(c, fill); done {
			return err
		}
	}
	for b := fill(0); b != nil; {
		n, err := c.Read(env, b)
		if n > 0 {
			b = fill(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
