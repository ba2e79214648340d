package pubsub

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Topic: "progress.lammps", Payload: []byte("42.5")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := newFrameReader(&buf).read()
	if err != nil {
		t.Fatal(err)
	}
	if out.Topic != in.Topic || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Message{Topic: "t"}); err != nil {
		t.Fatal(err)
	}
	m, err := newFrameReader(&buf).read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Topic != "t" || len(m.Payload) != 0 {
		t.Fatalf("got %+v", m)
	}
}

func TestFrameEmptyTopic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Message{Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	m, err := newFrameReader(&buf).read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Topic != "" || string(m.Payload) != "x" {
		t.Fatalf("got %+v", m)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, Message{Topic: "t", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&buf)
	for i := 0; i < 10; i++ {
		m, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("frame %d payload = %v", i, m.Payload)
		}
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameTruncatedMidFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Message{Topic: "topic", Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := newFrameReader(bytes.NewReader(trunc)).read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFrameOversizeTopicRejected(t *testing.T) {
	big := strings.Repeat("x", maxTopicLen)
	if _, err := EncodeFrame(nil, Message{Topic: big}); err == nil {
		t.Fatal("oversize topic accepted")
	}
}

func TestFrameCorruptTopicLen(t *testing.T) {
	// body says 4 bytes, topic header claims 100.
	raw := []byte{0, 0, 0, 4, 0, 100, 'a', 'b'}
	if _, err := newFrameReader(bytes.NewReader(raw)).read(); err == nil {
		t.Fatal("corrupt topic length accepted")
	}
}

func TestFrameOversizeBodyRejected(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 0, 0}
	if _, err := newFrameReader(bytes.NewReader(raw)).read(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameBodyTooShortRejected(t *testing.T) {
	raw := []byte{0, 0, 0, 1, 0}
	if _, err := newFrameReader(bytes.NewReader(raw)).read(); err == nil {
		t.Fatal("one-byte body accepted")
	}
}

func TestMatchesPrefix(t *testing.T) {
	m := Message{Topic: "progress.amg"}
	if !m.MatchesPrefix("") || !m.MatchesPrefix("progress.") || !m.MatchesPrefix("progress.amg") {
		t.Fatal("prefix matching broken")
	}
	if m.MatchesPrefix("progress.amgX") || m.MatchesPrefix("power.") {
		t.Fatal("prefix over-matching")
	}
}

// Property: any (topic, payload) with a short topic round-trips exactly.
func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(topicRaw []byte, payload []byte) bool {
		if len(topicRaw) > 1000 {
			topicRaw = topicRaw[:1000]
		}
		in := Message{Topic: string(topicRaw), Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := newFrameReader(&buf).read()
		if err != nil {
			return false
		}
		return out.Topic == in.Topic && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameReaderAllocatesOnlyPayload: the TCP read loops' frame reader
// keeps its header and topic buffers and interns topics, so a frame
// costs one allocation, the payload the consumer keeps.
func TestFrameReaderAllocatesOnlyPayload(t *testing.T) {
	frame, err := EncodeFrame(nil, Message{Topic: "progress.lammps", Payload: make([]byte, 24)})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(frame)
	fr := newFrameReader(src)
	var m Message
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		if m, err = fr.read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("reading a frame allocates %v times", allocs)
	}
	if m.Topic != "progress.lammps" || len(m.Payload) != 24 {
		t.Fatalf("read %q with %d payload bytes", m.Topic, len(m.Payload))
	}
}

// TestFrameReaderBoundsTopicTable: a peer cycling through fresh topics
// cannot grow the intern table past its bound, and every topic still
// reads back intact.
func TestFrameReaderBoundsTopicTable(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2*maxInterned; i++ {
		if err := WriteFrame(&buf, Message{Topic: strings.Repeat("t", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&buf)
	for i := 0; i < 2*maxInterned; i++ {
		m, err := fr.read()
		if err != nil || len(m.Topic) != i+1 {
			t.Fatalf("frame %d: topic length %d, err %v", i, len(m.Topic), err)
		}
	}
	if len(fr.topics) != maxInterned {
		t.Fatalf("intern table holds %d topics, want %d", len(fr.topics), maxInterned)
	}
}
