// Package pubsub is the repository's ZeroMQ substitute: a topic-based
// publish/subscribe layer used to transport application progress reports,
// as the paper does with ZeroMQ PUB/SUB sockets (§IV-B).
//
// Two transports are provided:
//
//   - Bus: an in-process broker used by the simulation engine. Publishes
//     are non-blocking; a slow subscriber's overflowing buffer drops
//     messages and counts the drops. This mirrors ZeroMQ's lossy PUB/SUB
//     behaviour and is what reproduces the paper's observation that
//     OpenMC's progress is "occasionally reported as zero" due to a flaw
//     in the monitoring framework rather than the application.
//
//   - Publisher/Subscriber: a TCP transport (length-prefixed frames,
//     topic-prefix subscriptions) for the cmd/ tools that stream progress
//     between real processes.
package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Message is a published datum: a topic for routing plus an opaque
// payload.
type Message struct {
	Topic   string
	Payload []byte
}

// MatchesPrefix reports whether the message's topic matches a
// subscription prefix, using ZeroMQ semantics: the empty prefix matches
// everything.
func (m Message) MatchesPrefix(prefix string) bool {
	return strings.HasPrefix(m.Topic, prefix)
}

// Frame wire format:
//
//	uint32 big-endian  frame length (topicLen field + topic + payload)
//	uint16 big-endian  topic length
//	topic bytes
//	payload bytes
const (
	maxTopicLen = 1 << 16
	// MaxFrameLen bounds a single frame; progress reports are tiny, so a
	// 16 MiB ceiling guards against corrupt length prefixes without
	// constraining any real use.
	MaxFrameLen = 16 << 20
)

// ErrFrameTooLarge is returned when an encoded or decoded frame exceeds
// MaxFrameLen.
var ErrFrameTooLarge = errors.New("pubsub: frame exceeds maximum length")

// EncodeFrame appends the wire encoding of m to dst and returns the
// extended slice.
func EncodeFrame(dst []byte, m Message) ([]byte, error) {
	if len(m.Topic) >= maxTopicLen {
		return dst, fmt.Errorf("pubsub: topic length %d exceeds %d", len(m.Topic), maxTopicLen-1)
	}
	body := 2 + len(m.Topic) + len(m.Payload)
	if body > MaxFrameLen {
		return dst, ErrFrameTooLarge
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(body))
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(m.Topic)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, m.Topic...)
	dst = append(dst, m.Payload...)
	return dst, nil
}

// WriteFrame writes the wire encoding of m to w.
func WriteFrame(w io.Writer, m Message) error {
	buf, err := EncodeFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// maxInterned bounds a frameReader's topic table, so a peer cycling
// through fresh topics cannot grow it without limit; topics past it are
// allocated per frame.
const maxInterned = 64

// frameReader reads successive frames from one stream. It keeps its
// header and topic buffers and interns topic strings, so a frame costs
// one allocation: the payload, which the consumer keeps.
type frameReader struct {
	r      io.Reader
	hdr    [6]byte
	topic  []byte
	topics map[string]string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, topics: make(map[string]string)}
}

// read reads the next frame. It returns io.EOF cleanly when the stream
// ends on a frame boundary and io.ErrUnexpectedEOF mid-frame.
func (fr *frameReader) read() (Message, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:4]); err != nil {
		return Message{}, err
	}
	body := binary.BigEndian.Uint32(fr.hdr[:4])
	if body > MaxFrameLen {
		return Message{}, ErrFrameTooLarge
	}
	if body < 2 {
		return Message{}, fmt.Errorf("pubsub: frame body %d shorter than topic header", body)
	}
	if err := fr.fill(fr.hdr[4:6]); err != nil {
		return Message{}, err
	}
	topicLen := int(binary.BigEndian.Uint16(fr.hdr[4:6]))
	if 2+topicLen > int(body) {
		return Message{}, fmt.Errorf("pubsub: topic length %d exceeds frame body %d", topicLen, body)
	}
	fr.topic = slices.Grow(fr.topic[:0], topicLen)[:topicLen]
	if err := fr.fill(fr.topic); err != nil {
		return Message{}, err
	}
	payload := make([]byte, int(body)-2-topicLen)
	if err := fr.fill(payload); err != nil {
		return Message{}, err
	}
	return Message{Topic: fr.intern(fr.topic), Payload: payload}, nil
}

// fill reads exactly len(b) bytes of the frame body: the stream ending
// here is always mid-frame.
func (fr *frameReader) fill(b []byte) error {
	_, err := io.ReadFull(fr.r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// intern returns the canonical string for b, allocating only on first
// sight (the map lookup keyed by string(b) does not allocate).
func (fr *frameReader) intern(b []byte) string {
	if s, ok := fr.topics[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(fr.topics) < maxInterned {
		fr.topics[s] = s
	}
	return s
}
