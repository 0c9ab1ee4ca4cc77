package blob

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/simclock"
)

func newStore() *Store {
	return New(simclock.Real{}, nil, LatencyModel{})
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "acme"))
	info, err := s.Put("b", "k", []byte("hello"), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 5 || info.ETag == "" || info.VersionID != 1 {
		t.Fatalf("info = %+v", info)
	}
	data, got, err := s.Get("b", "k")
	if err != nil || string(data) != "hello" || got.ETag != info.ETag {
		t.Fatalf("Get = %q %+v %v", data, got, err)
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	if _, _, err := s.Get("b", "nope"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := s.Get("nobucket", "k"); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("err = %v", err)
	}
}

func TestBucketLifecycle(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	if err := s.CreateBucket("b", "t"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Put("nobucket", "k", []byte("x"), PutOptions{}); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("err = %v", err)
	}
}

func TestConditionalPut(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	info, err := s.Put("b", "k", []byte("v1"), PutOptions{IfNoneMatch: true})
	must(t, err)
	// Create-only put on existing object fails.
	if _, err := s.Put("b", "k", []byte("v2"), PutOptions{IfNoneMatch: true}); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("err = %v", err)
	}
	// CAS with right etag succeeds; with stale etag fails.
	info2, err := s.Put("b", "k", []byte("v2"), PutOptions{IfMatch: info.ETag})
	must(t, err)
	if _, err := s.Put("b", "k", []byte("v3"), PutOptions{IfMatch: info.ETag}); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("stale CAS err = %v", err)
	}
	data, _, _ := s.Get("b", "k")
	if string(data) != "v2" || info2.VersionID != 2 {
		t.Fatalf("data = %q v%d", data, info2.VersionID)
	}
}

// TestVersioning: an object holds one version. A put replaces the data and
// bumps VersionID, and Get and List report the latest.
func TestVersioning(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	_, err := s.Put("b", "k", []byte("v1"), PutOptions{})
	must(t, err)
	info, err := s.Put("b", "k", []byte("v2"), PutOptions{})
	must(t, err)
	if info.VersionID != 2 {
		t.Fatalf("second put VersionID = %d, want 2", info.VersionID)
	}
	data, got, err := s.Get("b", "k")
	if err != nil || string(data) != "v2" || got.VersionID != 2 {
		t.Fatalf("Get = %q %+v %v", data, got, err)
	}
	infos, _, err := s.List("b", "", "", 0)
	if err != nil || len(infos) != 1 || infos[0].VersionID != 2 || infos[0].Size != 2 {
		t.Fatalf("List = %+v %v", infos, err)
	}
}

func TestListPrefixPagination(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	for i := 0; i < 5; i++ {
		_, err := s.Put("b", fmt.Sprintf("logs/%d", i), []byte("x"), PutOptions{})
		must(t, err)
	}
	_, err := s.Put("b", "other/0", []byte("x"), PutOptions{})
	must(t, err)

	infos, trunc, err := s.List("b", "logs/", "", 3)
	must(t, err)
	if len(infos) != 3 || !trunc {
		t.Fatalf("page1 = %d items trunc=%v", len(infos), trunc)
	}
	infos2, trunc2, err := s.List("b", "logs/", infos[2].Key, 3)
	must(t, err)
	if len(infos2) != 2 || trunc2 {
		t.Fatalf("page2 = %d items trunc=%v", len(infos2), trunc2)
	}
	if infos[0].Key != "logs/0" || infos2[1].Key != "logs/4" {
		t.Fatalf("ordering wrong: %v %v", infos[0].Key, infos2[1].Key)
	}
}

func TestNotifications(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	var events []Event
	s.Subscribe(func(e Event) { events = append(events, e) })
	_, err := s.Put("b", "k", []byte("x"), PutOptions{})
	must(t, err)
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Object.Key != "k" {
		t.Fatalf("event object = %+v", events[0].Object)
	}
}

func TestMetering(t *testing.T) {
	m := billing.NewMeter()
	s := New(simclock.Real{}, m, LatencyModel{})
	must(t, s.CreateBucket("b", "acme"))
	_, err := s.Put("b", "k", make([]byte, 1000), PutOptions{})
	must(t, err)
	_, _, err = s.Get("b", "k")
	must(t, err)
	if got := m.Units("acme", billing.ResBlobPut); got != 1 {
		t.Fatalf("puts = %v", got)
	}
	if got := m.Units("acme", billing.ResBlobGet); got != 1 {
		t.Fatalf("gets = %v", got)
	}
	if got := m.Units("acme", billing.ResBlobBytesOut); got != 1000 {
		t.Fatalf("bytes out = %v", got)
	}
}

func TestSimulatedLatency(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := New(v, nil, LatencyModel{PerOp: 20 * time.Millisecond, PerByte: time.Microsecond})
	var elapsed time.Duration
	v.Run(func() {
		must(t, s.CreateBucket("b", "t"))
		start := v.Now()
		_, err := s.Put("b", "k", make([]byte, 1000), PutOptions{})
		must(t, err)
		elapsed = v.Now().Sub(start)
	})
	want := 20*time.Millisecond + 1000*time.Microsecond
	if elapsed != want {
		t.Fatalf("put latency = %v, want %v", elapsed, want)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newStore()
	must(t, s.CreateBucket("b", "t"))
	_, err := s.Put("b", "k", []byte("abc"), PutOptions{})
	must(t, err)
	data, _, _ := s.Get("b", "k")
	data[0] = 'X'
	data2, _, _ := s.Get("b", "k")
	if string(data2) != "abc" {
		t.Fatal("Get exposed internal buffer")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
