package pulsar

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestBinaryCodecRoundTrip: an entry carries key, payload and publish time;
// the topic is the one the entry is decoded for, and the seq is not on the
// wire at all (readRange sets it from the entry's position).
func TestBinaryCodecRoundTrip(t *testing.T) {
	cases := []Message{
		{Seq: 0, Key: "", Payload: nil, PublishTime: time.Unix(0, 0), Topic: "t"},
		{Seq: 42, Key: "user-7", Payload: []byte("hello"), PublishTime: time.Unix(1234, 5678), Topic: "events-partition-3"},
		{Seq: 1 << 40, Key: "ключ", Payload: bytes.Repeat([]byte{0, 1, 2, 0xff}, 100), PublishTime: time.Unix(1700000000, 999999999), Topic: strings.Repeat("long", 50)},
		{Seq: 9, Key: "{looks-like-json", Payload: []byte(`{"payload":"trap"}`), PublishTime: time.Unix(7, 7), Topic: "x"},
	}
	for i, m := range cases {
		enc := encodeMessage(m)
		if enc[0] != codecVersion {
			t.Fatalf("case %d: version byte = 0x%02x", i, enc[0])
		}
		got, err := decodeMessage(enc, m.Topic)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Key != m.Key || got.Topic != m.Topic ||
			!bytes.Equal(got.Payload, m.Payload) ||
			!got.PublishTime.Equal(m.PublishTime) {
			t.Fatalf("case %d: round trip = %+v, want %+v", i, got, m)
		}
	}
}

func TestBinaryCodecSmallerThanJSON(t *testing.T) {
	m := Message{Seq: 123, Key: "k", Payload: bytes.Repeat([]byte("x"), 256), PublishTime: time.Unix(100, 0), Topic: "bench"}
	bin := encodeMessage(m)
	js, _ := json.Marshal(m)
	if len(bin) >= len(js) {
		t.Fatalf("binary entry (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(js))
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	enc := encodeMessage(Message{Key: "k", Payload: []byte("p"), PublishTime: time.Unix(1, 0)})
	padded := append([]byte{}, enc[:msgFixedHeader]...)
	padded = append(append(padded, 0x81, 0x00), enc[msgFixedHeader+1:]...)
	bad := [][]byte{
		nil,                                // empty
		{0x7f},                             // unknown version
		enc[:5],                            // truncated header
		enc[:len(enc)-1],                   // truncated payload
		append([]byte{}, codecVersion),     // version byte only
		append(enc[:len(enc):len(enc)], 0), // trailing byte
		padded,                             // key length 1 written in two bytes
	}
	for i, b := range bad {
		if _, err := decodeMessage(b, ""); err == nil {
			t.Fatalf("case %d: decode of %v succeeded", i, b)
		}
	}
	// No ledger outlives the process, so none holds pre-codec JSON entries
	// or v1 ones (seq and topic on the wire): '{' and 0x01 are unknown
	// version bytes.
	if _, err := decodeMessage([]byte(`{"seq":5}`), ""); err == nil || !strings.Contains(err.Error(), "unknown entry codec version 0x7b") {
		t.Fatalf("JSON entry decode error = %v, want unknown codec version", err)
	}
	v1 := []byte{0x01, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0x3b, 0x9a, 0xca, 0, 1, 'k', 1, 't', 1, 'p'}
	if _, err := decodeMessage(v1, "t"); err == nil || !strings.Contains(err.Error(), "unknown entry codec version 0x01") {
		t.Fatalf("v1 entry decode error = %v, want unknown codec version 0x01", err)
	}
}

// FuzzDecodeMessage: no input panics the entry decoder, and whatever it
// accepts is canonical — it re-encodes to the identical bytes.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeMessage(Message{Topic: "t"}))
	f.Add(encodeMessage(Message{Seq: 42, Key: "user-7", Payload: []byte("hello"), PublishTime: time.Unix(1234, 5678), Topic: "events-partition-3"}))
	f.Add(encodeMessage(Message{Seq: -1, Key: strings.Repeat("k", 200), Payload: bytes.Repeat([]byte{0xff}, 300), PublishTime: time.Unix(0, -1), Topic: "x"}))
	f.Add([]byte(`{"seq":5}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMessage(b, "")
		if err != nil {
			return
		}
		if enc := encodeMessage(m); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x, which re-encodes to %x (%+v)", b, enc, m)
		}
	})
}

// encodeMessage serializes m into a single freshly allocated buffer. Its Seq
// and Topic are not part of the entry.
func encodeMessage(m Message) []byte {
	b := make([]byte, entrySize(m.Key, len(m.Payload)))
	encodeEntryInto(b, m.Key, m.Payload, m.PublishTime)
	return b
}
