package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A generated schedule must survive a JSON round trip exactly: witnesses are
// saved and replayed by value, so any lossy encoding would replay a different
// fault sequence than the one that produced the divergence.
func TestScheduleJSONRoundTripGenerated(t *testing.T) {
	sch := Generate(Options{
		Seed:       42,
		Bookies:    []string{"bookie-0", "bookie-1", "bookie-2"},
		Brokers:    []string{"broker-0", "broker-1"},
		JiffyNodes: []string{"mem-0"},
	})
	if len(sch) == 0 {
		t.Fatal("generated schedule is empty")
	}
	raw, err := json.Marshal(sch)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Schedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(sch, back) {
		t.Fatalf("round trip diverged:\n  in:  %+v\n  out: %+v", sch, back)
	}
	// A second marshal must be byte-identical — schedules are compared as
	// serialized witnesses.
	raw2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("re-marshal not byte-identical:\n  %s\n  %s", raw, raw2)
	}
}

// The new conformance fault kinds (duplicate delivery, crash-after-effect)
// round-trip too, including sub-millisecond offsets and N fields.
func TestScheduleJSONRoundTripConformanceOps(t *testing.T) {
	sch := Schedule{
		{At: 333 * time.Microsecond, Op: OpDuplicate, Kind: KindSub, Target: "orders/workers"},
		{At: time.Millisecond + 333*time.Microsecond, Op: OpDrop, Kind: KindSub, Target: "orders/workers", N: 2},
		{At: 2 * time.Millisecond, Op: OpCrashAfterEffect, Kind: KindFunction, Target: "checkout", N: 1},
		{At: 5 * time.Millisecond, Op: OpSlow, Kind: KindBroker, Target: "broker-0", Latency: 1500 * time.Microsecond},
	}
	raw, err := json.Marshal(sch)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"op":"duplicate"`) || !strings.Contains(string(raw), `"op":"crash-after-effect"`) {
		t.Fatalf("wire form missing conformance ops: %s", raw)
	}
	var back Schedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(sch, back) {
		t.Fatalf("round trip diverged:\n  in:  %+v\n  out: %+v", sch, back)
	}
}

// FuzzScheduleJSON feeds Schedule's decoder — the last one in the tree that
// sees bytes from outside (a saved divergence witness, replayed) — arbitrary
// input. It must never panic; an event whose time or latency is not a
// duration is an error, and nothing else about a well-formed event is; and
// whatever decodes re-encodes to itself: the encoding decodes to the same
// schedule and encodes to the same bytes again, which is what comparing
// witnesses as serialized values relies on.
func FuzzScheduleJSON(f *testing.F) {
	gen, err := json.Marshal(Generate(Options{Seed: 7, Bookies: []string{"bookie-0", "bookie-1"}, Brokers: []string{"broker-0"}, JiffyNodes: []string{"mem-0"}}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gen)
	f.Add([]byte(`[{"at":"333µs","op":"duplicate","kind":"sub","target":"orders/workers"},{"at":"1.5ms","op":"slow","kind":"broker","target":"broker-0","latency":"-2h3m"}]`))
	f.Add([]byte(`[{"at":"soon","op":"crash","kind":"bookie"}]`))
	f.Add([]byte(`[{"at":"1ms","op":"slow","kind":"bookie","latency":"1 parsec"}]`))
	f.Add([]byte(`[{"at":"1ms","n":"two"}]`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sch Schedule
		err := json.Unmarshal(data, &sch)
		// Where the bytes are a well-formed array of wire events, the decoder
		// fails exactly when one of the duration strings does.
		var wire []eventJSON
		if json.Unmarshal(data, &wire) == nil {
			bad := false
			for _, w := range wire {
				_, atErr := time.ParseDuration(w.At)
				_, latErr := time.ParseDuration(w.Latency)
				bad = bad || atErr != nil || (w.Latency != "" && latErr != nil)
			}
			if bad != (err != nil) {
				t.Fatalf("bad duration = %v but decode err = %v\n  in: %s", bad, err, data)
			}
		}
		if err != nil {
			return
		}
		raw, err := json.Marshal(sch)
		if err != nil {
			t.Fatalf("decoded schedule does not encode: %v\n  in: %s", err, data)
		}
		var back Schedule
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("encoding does not decode: %v\n  in:  %s\n  enc: %s", err, data, raw)
		}
		if !reflect.DeepEqual(sch, back) {
			t.Fatalf("round trip diverged:\n  in:  %+v\n  out: %+v", sch, back)
		}
		if raw2, err := json.Marshal(back); err != nil || string(raw2) != string(raw) {
			t.Fatalf("re-encoding not byte-identical (%v):\n  %s\n  %s", err, raw, raw2)
		}
	})
}
