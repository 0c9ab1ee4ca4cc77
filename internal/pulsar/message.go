// Package pulsar implements the enterprise-grade messaging system of §4.3
// (Figure 1): stateless brokers that acquire topic ownership through the
// coordination service, durable message storage on BookKeeper-style ledgers,
// partitioned topics, and one unified API generalizing queuing and
// publish-subscribe via subscription modes (exclusive, shared, failover,
// key-shared). §4.3.1's Pulsar Functions — serverless functions consuming
// from and publishing to topics — are faas functions bound to a topic
// (faas.BindTopic) through a push subscription (Cluster.SubscribeFunc).
package pulsar

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Message is one payload published to a topic.
type Message struct {
	// Seq is the message's position in its topic (0-based, contiguous).
	Seq int64 `json:"seq"`
	// Key is the optional routing/compaction key.
	Key string `json:"key,omitempty"`
	// Payload is the message body.
	Payload []byte `json:"payload"`
	// PublishTime is when the broker accepted the message.
	PublishTime time.Time `json:"publish_time"`
	// Topic is the concrete (partition) topic the message lives on.
	Topic string `json:"topic"`
	// Trace is the publish-side causal context, carried in memory only: it
	// parents per-delivery "pulsar.deliver" spans. It is deliberately not
	// part of the wire format — a trace ends with its request, so entries
	// replayed from a recovered ledger come back untraced rather than
	// resurrecting long-finalized traces.
	Trace obs.TraceCtx `json:"-"`
}

// Ledger entry wire format:
//
//	byte 0      codecVersion (0x02)
//	bytes 1-8   PublishTime, big-endian int64 unix nanoseconds
//	uvarint     len(Key)   followed by the key bytes
//	uvarint     len(Payload) followed by the payload bytes
//
// An entry names neither its topic nor its seq: its ledger implies both. A
// topic's ledgers hold that topic's messages only, and an entry's position
// in them is its seq (readRange), as in Pulsar's managed ledger. Version
// 0x01 carried both; no ledger outlives the process, so none holds one.
const codecVersion = 0x02

const msgFixedHeader = 1 + 8 // version + publish time

// entrySize returns the encoded size of an entry with the given key and
// payload length.
func entrySize(key string, payloadLen int) int {
	return msgFixedHeader +
		uvarintLen(uint64(len(key))) + len(key) +
		uvarintLen(uint64(payloadLen)) + payloadLen
}

// encodeEntryInto serializes an entry published at `at` into buf, which must
// be exactly entrySize bytes; the payload is its last bytes. On the publish
// path buf is the topic's encode scratch (topicState.encode), which the
// current ledger's append copies into the entry log it owns: that copy is the
// one a payload is kept in, which goes uncopied to the bookies, and as a
// payload view to the topic's window and consumers, and nothing writes it
// again.
func encodeEntryInto(buf []byte, key string, payload []byte, at time.Time) {
	buf[0] = codecVersion
	binary.BigEndian.PutUint64(buf[1:], uint64(at.UnixNano()))
	off := msgFixedHeader
	off += binary.PutUvarint(buf[off:], uint64(len(key)))
	off += copy(buf[off:], key)
	off += binary.PutUvarint(buf[off:], uint64(len(payload)))
	copy(buf[off:], payload)
}

// decodeMessage parses a ledger entry of topic's. The returned Message's
// Payload may alias b, its Topic is topic, and its Seq is zero: the caller
// knows the entry's position and sets it. Like decodeCursor it accepts
// exactly what the encoder writes — a padded length prefix or bytes after
// the payload is an error — so an entry that decodes re-encodes to itself
// (FuzzDecodeMessage).
func decodeMessage(b []byte, topic string) (Message, error) {
	if len(b) == 0 {
		return Message{}, fmt.Errorf("pulsar: empty ledger entry")
	}
	if b[0] != codecVersion {
		return Message{}, fmt.Errorf("pulsar: unknown entry codec version 0x%02x", b[0])
	}
	if len(b) < msgFixedHeader {
		return Message{}, fmt.Errorf("pulsar: truncated entry header (%d bytes)", len(b))
	}
	m := Message{
		PublishTime: time.Unix(0, int64(binary.BigEndian.Uint64(b[1:]))),
		Topic:       topic,
	}
	key, off, err := readLenPrefixed(b, msgFixedHeader)
	if err != nil {
		return Message{}, fmt.Errorf("pulsar: bad entry key: %w", err)
	}
	m.Key = string(key)
	payload, off, err := readLenPrefixed(b, off)
	if err != nil {
		return Message{}, fmt.Errorf("pulsar: bad entry payload: %w", err)
	}
	if off != len(b) {
		return Message{}, fmt.Errorf("pulsar: %d trailing bytes after entry payload", len(b)-off)
	}
	m.Payload = payload
	return m, nil
}

// readLenPrefixed reads a uvarint length then that many bytes from b[off:].
func readLenPrefixed(b []byte, off int) ([]byte, int, error) {
	n, sz := binary.Uvarint(b[off:])
	if sz <= 0 || sz != uvarintLen(n) {
		return nil, 0, fmt.Errorf("bad length prefix at offset %d", off)
	}
	off += sz
	if uint64(len(b)-off) < n {
		return nil, 0, fmt.Errorf("field of %d bytes exceeds entry (%d left)", n, len(b)-off)
	}
	return b[off : off+int(n)], off + int(n), nil
}

// uvarintLen returns how many bytes binary.PutUvarint needs for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SubMode selects a subscription's dispatch semantics (§4.3: Pulsar
// generalizes queuing and pub-sub through one messaging API).
type SubMode int

const (
	// Exclusive allows a single consumer, receiving every message.
	Exclusive SubMode = iota
	// Shared distributes messages round-robin across consumers (queuing
	// semantics).
	Shared
	// Failover delivers every message to the first live consumer,
	// switching on its departure.
	Failover
	// KeyShared distributes messages across consumers by key hash,
	// preserving per-key order.
	KeyShared
)

// String returns the mode's name.
func (m SubMode) String() string {
	switch m {
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case Failover:
		return "failover"
	case KeyShared:
		return "key-shared"
	default:
		return "unknown"
	}
}

// InitialPosition selects where a brand-new subscription starts.
type InitialPosition int

const (
	// Latest delivers only messages published after the subscription is
	// created.
	Latest InitialPosition = iota
	// Earliest starts at the oldest message the topic retains: everything
	// published, unless ledgers every subscription had acked past were
	// deleted, in which case the first message of the oldest ledger left.
	Earliest
)
