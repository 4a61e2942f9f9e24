package nexus

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWireFrameRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PutString("payload")
	b.PutInt64(99)
	var w bytes.Buffer
	if err := WriteFrame(&w, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&w, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := got.GetString()
	v, _ := got.GetInt64()
	if s != "payload" || v != 99 {
		t.Fatalf("round trip = %q, %d", s, v)
	}
}

func TestWireFrameSizeLimit(t *testing.T) {
	b := NewBuffer()
	b.PutBytes(make([]byte, 100))
	var w bytes.Buffer
	if err := WriteFrame(&w, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&w, 10); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestWireFrameTruncated(t *testing.T) {
	b := NewBuffer()
	b.PutString("data")
	var w bytes.Buffer
	_ = WriteFrame(&w, b)
	raw := w.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut]), 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	prop := func(payload []byte) bool {
		b := NewBuffer()
		b.PutBytes(payload)
		var w bytes.Buffer
		if err := WriteFrame(&w, b); err != nil {
			return false
		}
		got, err := ReadFrame(&w, 0)
		if err != nil {
			return false
		}
		data, err := got.GetBytes()
		return err == nil && bytes.Equal(data, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
