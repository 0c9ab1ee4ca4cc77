package queue

import (
	"errors"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/simclock"
)

func newSvc() *Service { return New(simclock.Real{}, nil) }

func TestSendReceiveAck(t *testing.T) {
	s := newSvc()
	must(t, s.CreateQueue("q", "t", DefaultConfig()))
	id, err := s.Send("q", []byte("hello"))
	must(t, err)
	if id == 0 {
		t.Fatal("zero message id")
	}
	ds, err := s.Receive("q", 10)
	must(t, err)
	if len(ds) != 1 || string(ds[0].Body) != "hello" || ds[0].ReceiveCount != 1 {
		t.Fatalf("deliveries = %+v", ds)
	}
	must(t, s.Ack("q", ds[0].ReceiptHandle))
	if left := queued(s, "q"); left != 0 {
		t.Fatalf("%d messages left after ack", left)
	}
	// Double ack fails.
	if err := s.Ack("q", ds[0].ReceiptHandle); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("double ack err = %v", err)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := newSvc()
	must(t, s.CreateQueue("q", "t", DefaultConfig()))
	for _, b := range []string{"a", "b", "c"} {
		_, err := s.Send("q", []byte(b))
		must(t, err)
	}
	ds, _ := s.Receive("q", 10)
	if len(ds) != 3 || string(ds[0].Body) != "a" || string(ds[2].Body) != "c" {
		t.Fatalf("order wrong: %+v", ds)
	}
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := New(v, nil)
	v.Run(func() {
		must(t, s.CreateQueue("q", "t", Config{VisibilityTimeout: 30 * time.Second}))
		_, err := s.Send("q", []byte("m"))
		must(t, err)
		ds, _ := s.Receive("q", 1)
		if len(ds) != 1 {
			t.Fatalf("first receive got %d", len(ds))
		}
		// Hidden while in flight.
		if ds2, _ := s.Receive("q", 1); len(ds2) != 0 {
			t.Fatal("message visible during visibility timeout")
		}
		v.Sleep(31 * time.Second)
		ds3, _ := s.Receive("q", 1)
		if len(ds3) != 1 || ds3[0].ReceiveCount != 2 {
			t.Fatalf("redelivery = %+v", ds3)
		}
		// The stale first handle must no longer ack.
		if err := s.Ack("q", ds[0].ReceiptHandle); !errors.Is(err, ErrBadHandle) {
			t.Fatalf("stale handle ack err = %v", err)
		}
		must(t, s.Ack("q", ds3[0].ReceiptHandle))
	})
}

func TestDeadLetterRedrive(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := New(v, nil)
	v.Run(func() {
		must(t, s.CreateQueue("dlq", "t", DefaultConfig()))
		must(t, s.CreateQueue("q", "t", Config{VisibilityTimeout: time.Second, MaxReceive: 2, DeadLetter: "dlq"}))
		_, err := s.Send("q", []byte("poison"))
		must(t, err)
		for i := 0; i < 2; i++ {
			ds, _ := s.Receive("q", 1)
			if len(ds) != 1 {
				t.Fatalf("attempt %d: got %d messages", i, len(ds))
			}
			v.Sleep(2 * time.Second) // let it time out, unacked
		}
		// Third attempt: exhausted → redriven to DLQ, not delivered.
		ds, _ := s.Receive("q", 1)
		if len(ds) != 0 {
			t.Fatalf("exhausted message delivered: %+v", ds)
		}
		dd, _ := s.Receive("dlq", 1)
		if len(dd) != 1 || string(dd[0].Body) != "poison" {
			t.Fatalf("dlq = %+v", dd)
		}
	})
}

func TestOnSendHook(t *testing.T) {
	s := newSvc()
	must(t, s.CreateQueue("q", "t", DefaultConfig()))
	var fired []string
	must(t, s.OnSend("q", func(qn string) { fired = append(fired, qn) }))
	_, err := s.Send("q", nil)
	must(t, err)
	if len(fired) != 1 || fired[0] != "q" {
		t.Fatalf("hook fired = %v", fired)
	}
}

func TestTopicFanout(t *testing.T) {
	s := newSvc()
	must(t, s.CreateTopic("tp", "t"))
	var a, b [][]byte
	must(t, s.SubscribeFunc("tp", func(body []byte) { a = append(a, body) }))
	must(t, s.SubscribeFunc("tp", func(body []byte) { b = append(b, body) }))
	must(t, s.Publish("tp", []byte("news")))
	for _, got := range [][][]byte{a, b} {
		if len(got) != 1 || string(got[0]) != "news" {
			t.Fatalf("func subs = %q, %q", a, b)
		}
	}
}

func TestErrors(t *testing.T) {
	s := newSvc()
	if _, err := s.Send("none", nil); !errors.Is(err, ErrNoQueue) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Receive("none", 1); !errors.Is(err, ErrNoQueue) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Publish("none", nil); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("err = %v", err)
	}
	must(t, s.CreateQueue("q", "t", DefaultConfig()))
	if err := s.CreateQueue("q", "t", DefaultConfig()); !errors.Is(err, ErrQueueExists) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Ack("q", "garbage"); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v", err)
	}
}

func TestMetering(t *testing.T) {
	m := billing.NewMeter()
	s := New(simclock.Real{}, m)
	must(t, s.CreateQueue("q", "acme", DefaultConfig()))
	_, err := s.Send("q", nil)
	must(t, err)
	_, err = s.Receive("q", 1)
	must(t, err)
	if got := m.Units("acme", billing.ResQueueReqs); got != 2 {
		t.Fatalf("queue requests = %v, want 2", got)
	}
}

func TestReceiveMax(t *testing.T) {
	s := newSvc()
	must(t, s.CreateQueue("q", "t", DefaultConfig()))
	for i := 0; i < 5; i++ {
		_, err := s.Send("q", []byte{byte(i)})
		must(t, err)
	}
	ds, _ := s.Receive("q", 3)
	if len(ds) != 3 {
		t.Fatalf("got %d, want 3", len(ds))
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// queued returns how many messages the named queue holds, visible or not.
func queued(s *Service, name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[name].msgs)
}
