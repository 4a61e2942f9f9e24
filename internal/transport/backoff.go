package transport

import (
	"hash/fnv"
	"time"
)

// Backoff computes capped exponential retry delays with deterministic
// jitter. The jitter draw comes from Rand when set — under simulation that
// must be the kernel's seeded stream (see RandOf), never any global source,
// so chaos runs are bit-reproducible — and otherwise falls back to a pure
// hash of (Key, attempt number), which keeps distinct clients (distinct
// Keys) decorrelated even outside a simulation: the property real systems
// buy with randomness, bought here with a hash.
//
// The zero value is usable: Base defaults to 100ms, Max to 5s.
type Backoff struct {
	Base time.Duration // first delay
	Max  time.Duration // cap applied before jitter
	Key  string        // fallback jitter seed, e.g. "inner-register@rwcp-inner"
	// Rand, when non-nil, supplies the jitter draws. Simulated code must wire
	// this to the kernel's seeded stream via RandOf(env); leaving it nil is
	// only acceptable where no kernel exists (real-TCP deployments, tests of
	// the hash fallback itself).
	Rand func() uint64

	attempt int
}

// Next returns the delay to sleep before the next retry and advances the
// attempt counter. Delays double from Base up to Max, then up to 25% of the
// capped delay is added back as jitter.
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 0; i < b.attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	var v uint64
	if b.Rand != nil {
		v = b.Rand()
	} else {
		h := fnv.New64a()
		h.Write([]byte(b.Key))
		var n [8]byte
		a := uint64(b.attempt)
		for i := range n {
			n[i] = byte(a >> (8 * i))
		}
		h.Write(n[:])
		v = h.Sum64()
	}
	jitter := time.Duration(v % uint64(d/4+1))
	b.attempt++
	return d + jitter
}

// Reset rewinds the schedule to the first delay; call it after a successful
// attempt so the next failure starts from Base again.
func (b *Backoff) Reset() { b.attempt = 0 }
