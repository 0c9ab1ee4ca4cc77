package faas

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
	"repro/internal/simclock"
)

func TestBindQueueInvokesAndAcks(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	qs := queue.New(v, nil)
	must(t, qs.CreateQueue("jobs", "t", queue.DefaultConfig()))

	var mu sync.Mutex
	var seen []string
	h := func(ctx *Ctx, payload []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, string(payload))
		mu.Unlock()
		return nil, nil
	}
	must(t, p.Register("etl", "t", h, Config{}))
	must(t, BindQueue(p, qs, "jobs", "t", "etl", 10))

	v.Run(func() {
		for _, m := range []string{"a", "b", "c"} {
			_, err := qs.Send("jobs", []byte(m))
			must(t, err)
		}
		v.Sleep(time.Second) // let async invocations drain
	})
	if len(seen) != 3 {
		t.Fatalf("invoked %d times, want 3: %v", len(seen), seen)
	}
	n, _ := qs.Len("jobs")
	if n != 0 {
		t.Fatalf("queue length = %d after acks, want 0", n)
	}
}

func TestBindQueueFailedMessageStays(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	qs := queue.New(v, nil)
	must(t, qs.CreateQueue("jobs", "t", queue.Config{VisibilityTimeout: 10 * time.Second}))
	var calls int64
	h := func(ctx *Ctx, payload []byte) ([]byte, error) {
		atomic.AddInt64(&calls, 1)
		return nil, errTransient
	}
	must(t, p.Register("bad", "t", h, Config{MaxRetries: -1}))
	must(t, BindQueue(p, qs, "jobs", "t", "bad", 1))
	v.Run(func() {
		_, err := qs.Send("jobs", []byte("x"))
		must(t, err)
		v.Sleep(11 * time.Second) // past visibility timeout
	})
	// The message must still be on the queue (unacked after failure).
	n, _ := qs.Len("jobs")
	if n != 1 {
		t.Fatalf("queue length = %d, want 1 (failed message retained)", n)
	}
}

var errTransient = errString("transient")

type errString string

func (e errString) Error() string { return string(e) }

func TestBindBlobEventPayload(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	store := blob.New(v, nil, blob.LatencyModel{})
	must(t, store.CreateBucket("photos", "t"))
	must(t, store.CreateBucket("other", "t"))

	var mu sync.Mutex
	var events []BlobEvent
	h := func(ctx *Ctx, payload []byte) ([]byte, error) {
		var e BlobEvent
		if err := json.Unmarshal(payload, &e); err != nil {
			return nil, err
		}
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
		return nil, nil
	}
	must(t, p.Register("thumb", "t", h, Config{}))
	BindBlob(p, store, "photos", "t", "thumb")

	v.Run(func() {
		_, err := store.Put("photos", "cat.jpg", []byte("img"), blob.PutOptions{})
		must(t, err)
		_, err = store.Put("other", "skip.jpg", []byte("img"), blob.PutOptions{})
		must(t, err)
		must(t, store.Delete("photos", "cat.jpg"))
		v.Sleep(time.Second)
	})
	if len(events) != 2 {
		t.Fatalf("events = %+v, want put+delete for photos only", events)
	}
	// Async invocations race; assert the event *set*, not the order.
	byType := map[string]BlobEvent{}
	for _, e := range events {
		byType[e.Type] = e
	}
	put, ok := byType["put"]
	if !ok || put.Key != "cat.jpg" || put.Size != 3 {
		t.Fatalf("put event = %+v", put)
	}
	if _, ok := byType["delete"]; !ok {
		t.Fatalf("missing delete event: %+v", events)
	}
}

func TestDriveSchedulesArrivals(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var mu sync.Mutex
	var stamps []time.Duration
	h := func(ctx *Ctx, payload []byte) ([]byte, error) {
		mu.Lock()
		stamps = append(stamps, v.Now().Sub(simclock.Epoch))
		mu.Unlock()
		return nil, nil
	}
	must(t, p.Register("f", "t", h, Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond}))
	arrivals := []time.Duration{0, time.Second, 2 * time.Second}
	v.Run(func() {
		rep := Drive(p, "t", "f", nil, arrivals)
		rep.Wait()
		if st, _ := p.StatsFor("t", "f"); len(rep.Results()) != 3 || st.Invocations != 3 || st.Throttles+st.Failures != 0 {
			t.Errorf("results=%d stats=%+v", len(rep.Results()), st)
		}
	})
	if len(stamps) != 3 {
		t.Fatalf("stamps = %v", stamps)
	}
	// Handlers start 1ms (start latency) after each arrival.
	for i, want := range []time.Duration{time.Millisecond, time.Second + time.Millisecond, 2*time.Second + time.Millisecond} {
		if stamps[i] != want {
			t.Fatalf("stamp[%d] = %v, want %v", i, stamps[i], want)
		}
	}
}
