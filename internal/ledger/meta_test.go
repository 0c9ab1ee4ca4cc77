package ledger

import (
	"reflect"
	"testing"
)

var metaSeeds = []metadata{
	{Ensemble: []string{"bookie-0", "bookie-1", "bookie-2"}, WriteQuorum: 2, AckQuorum: 2},
	{Ensemble: []string{"b"}, WriteQuorum: 1, AckQuorum: 1, Closed: true, LastEntry: -1},
	{Ensemble: []string{"bookie-3", "bookie-1", "bookie-2"}, WriteQuorum: 3, AckQuorum: 2, Closed: true, LastEntry: 4095},
	{Ensemble: []string{"x", "y"}, WriteQuorum: 2, AckQuorum: 1, Closed: true, LastEntry: 1 << 40, Offloaded: true, Bucket: "tier", Key: "ledgers/7"},
	{Ensemble: []string{"x"}, WriteQuorum: 1, AckQuorum: 1, Closed: true, Offloaded: true},
}

func TestMetaCodecRoundTrip(t *testing.T) {
	for _, md := range metaSeeds {
		got, err := decodeMeta(appendMeta(nil, md))
		if err != nil {
			t.Fatalf("decode(%+v): %v", md, err)
		}
		if !reflect.DeepEqual(got, md) {
			t.Fatalf("round trip: got %+v, want %+v", got, md)
		}
	}
}

func TestDecodeMetaRejectsGarbage(t *testing.T) {
	good := appendMeta(nil, metaSeeds[0])
	cases := map[string][]byte{
		"empty":           nil,
		"version":         append([]byte{0x02}, good[1:]...),
		"flags":           append([]byte{metaVersion, 0x04}, good[2:]...),
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"padded quorum":   append([]byte{metaVersion, 0, 0x82, 0x00}, good[3:]...),
		"ack above write": appendMeta(nil, metadata{Ensemble: []string{"a", "b"}, WriteQuorum: 1, AckQuorum: 2}),
		"write above ens": appendMeta(nil, metadata{Ensemble: []string{"a"}, WriteQuorum: 2, AckQuorum: 1}),
		"zero ack":        appendMeta(nil, metadata{Ensemble: []string{"a"}, WriteQuorum: 1}),
		"empty bookie":    appendMeta(nil, metadata{Ensemble: []string{""}, WriteQuorum: 1, AckQuorum: 1}),
		"last below -1":   appendMeta(nil, metadata{Ensemble: []string{"a"}, WriteQuorum: 1, AckQuorum: 1, Closed: true, LastEntry: -2}),
		"open offloaded":  appendMeta(nil, metadata{Ensemble: []string{"a"}, WriteQuorum: 1, AckQuorum: 1, Offloaded: true}),
		"huge ensemble":   {metaVersion, 0, 1, 1, 0x7f},
	}
	for name, b := range cases {
		if md, err := decodeMeta(b); err == nil {
			t.Errorf("%s: decoded %q as %+v, want an error", name, b, md)
		}
	}
}

// FuzzLedgerMeta: any input decodeMeta accepts re-encodes to itself (the
// codec has one spelling per record), and no input panics.
func FuzzLedgerMeta(f *testing.F) {
	for _, md := range metaSeeds {
		f.Add(appendMeta(nil, md))
	}
	f.Add([]byte{metaVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		md, err := decodeMeta(b)
		if err != nil {
			return
		}
		if again := appendMeta(nil, md); string(again) != string(b) {
			t.Fatalf("decode(%q) = %+v re-encodes as %q", b, md, again)
		}
	})
}
