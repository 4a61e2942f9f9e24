package hbm

import (
	"runtime"
	"testing"

	"nxcluster/internal/nexus"
)

// body builds one request or reply body: an int32 and fields, int32 or
// string.
func body(op int32, fields ...interface{}) []byte {
	b := nexus.NewBuffer()
	b.PutInt32(op)
	for _, f := range fields {
		switch v := f.(type) {
		case int:
			b.PutInt32(int32(v))
		case string:
			b.PutString(v)
		}
	}
	return b.Bytes()
}

// FuzzListReply holds QueryAll's side of the list exchange to the bar the
// monitor's side is held to (FuzzMonitorRequest in internal/wirefuzz): no
// panic, and no allocation sized by a count the reply did not pay for. A
// list reply past its status is laid out as body lays one out: a count,
// then name and health fields.
func FuzzListReply(f *testing.F) {
	f.Add(body(0))
	f.Add(body(2, "node0", int(Up), "node1", int(Down)))
	f.Add(body(1 << 24))
	f.Add(body(1<<31 - 1))
	f.Add(body(-1))
	f.Add(body(2, "node0", int(Up)))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := decodeList(nexus.FromBytes(body))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(body)) {
			t.Fatalf("a %d-byte reply made the decoder allocate %d bytes", len(body), grew)
		}
		if err == nil && 8*len(out) > len(body) {
			t.Fatalf("a %d-byte reply decoded to %d entries", len(body), len(out))
		}
	})
}
