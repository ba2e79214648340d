package pubsub

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hardens the wire decoder against arbitrary bytes: it
// must never panic, and anything it accepts must re-encode to an
// equivalent frame.
func FuzzReadFrame(f *testing.F) {
	good, _ := EncodeFrame(nil, Message{Topic: "progress.lammps", Payload: []byte("42")})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := newFrameReader(bytes.NewReader(data)).read()
		if err != nil {
			return
		}
		re, err := EncodeFrame(nil, m)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		m2, err := newFrameReader(bytes.NewReader(re)).read()
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if m2.Topic != m.Topic || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatal("re-encode round trip changed the frame")
		}
	})
}
