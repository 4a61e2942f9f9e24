package nexus

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PutInt32(-42)
	b.PutInt64(1 << 40)
	b.PutBool(true)
	b.PutBool(false)
	b.PutString("knapsack")
	b.PutBytes([]byte{1, 2, 3})

	r := FromBytes(b.Bytes())
	if v, err := r.GetInt32(); err != nil || v != -42 {
		t.Fatalf("GetInt32 = %d, %v", v, err)
	}
	if v, err := r.GetInt64(); err != nil || v != 1<<40 {
		t.Fatalf("GetInt64 = %d, %v", v, err)
	}
	if v, err := r.GetBool(); err != nil || !v {
		t.Fatalf("GetBool = %v, %v", v, err)
	}
	if v, err := r.GetBool(); err != nil || v {
		t.Fatalf("GetBool = %v, %v", v, err)
	}
	if v, err := r.GetString(); err != nil || v != "knapsack" {
		t.Fatalf("GetString = %q, %v", v, err)
	}
	if v, err := r.GetBytes(); err != nil || len(v) != 3 || v[2] != 3 {
		t.Fatalf("GetBytes = %v, %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d after full read", r.Remaining())
	}
}

func TestBufferShortReads(t *testing.T) {
	r := FromBytes([]byte{0, 0})
	if _, err := r.GetInt32(); !errors.Is(err, ErrBufferShort) {
		t.Fatalf("GetInt32 on short buffer = %v", err)
	}
	b := NewBuffer()
	b.PutInt32(100) // claims 100 bytes follow
	r = FromBytes(b.Bytes())
	if _, err := r.GetBytes(); !errors.Is(err, ErrBufferShort) {
		t.Fatalf("GetBytes with lying prefix = %v", err)
	}
}

func TestBufferNegativeLengthRejected(t *testing.T) {
	b := NewBuffer()
	b.PutInt32(-1)
	r := FromBytes(b.Bytes())
	if _, err := r.GetBytes(); !errors.Is(err, ErrBufferShort) {
		t.Fatalf("negative length = %v, want ErrBufferShort", err)
	}
}

func TestBufferResetAndRewind(t *testing.T) {
	b := NewBuffer()
	b.PutInt32(5)
	if _, err := b.GetInt32(); err != nil {
		t.Fatal(err)
	}
	b.Rewind()
	if v, err := b.GetInt32(); err != nil || v != 5 {
		t.Fatalf("after Rewind: %d, %v", v, err)
	}
	b.Reset()
	if b.Len() != 0 || b.Remaining() != 0 {
		t.Fatalf("after Reset: len=%d rem=%d", b.Len(), b.Remaining())
	}
}

// Property: arbitrary sequences of scalar values round-trip exactly.
func TestQuickScalarRoundTrip(t *testing.T) {
	prop := func(i32 int32, i64 int64, s string, bs []byte, ok bool) bool {
		b := NewBuffer()
		b.PutInt32(i32)
		b.PutInt64(i64)
		b.PutString(s)
		b.PutBytes(bs)
		b.PutBool(ok)
		r := FromBytes(b.Bytes())
		g32, e1 := r.GetInt32()
		g64, e2 := r.GetInt64()
		gs, e4 := r.GetString()
		gbs, e5 := r.GetBytes()
		gok, e6 := r.GetBool()
		if e1 != nil || e2 != nil || e4 != nil || e5 != nil || e6 != nil {
			return false
		}
		if g32 != i32 || g64 != i64 || gs != s || gok != ok {
			return false
		}
		if len(gbs) != len(bs) {
			return false
		}
		for i := range bs {
			if gbs[i] != bs[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseAddress(t *testing.T) {
	hp, ep, err := ParseAddress("x-nexus://etl-o2k:41233/7")
	if err != nil || hp != "etl-o2k:41233" || ep != 7 {
		t.Fatalf("ParseAddress = %q, %d, %v", hp, ep, err)
	}
	for _, bad := range []string{"", "http://a:1/2", "x-nexus://a:1", "x-nexus://a:1/x"} {
		if _, _, err := ParseAddress(bad); err == nil {
			t.Errorf("ParseAddress(%q) succeeded", bad)
		}
	}
}
