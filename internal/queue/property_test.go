package queue

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

// TestPropertyAtLeastOnce: under random consumer behaviour (ack or drop),
// every message is eventually acked or lands in the DLQ — none vanish.
func TestPropertyAtLeastOnce(t *testing.T) {
	f := func(seed int64) bool {
		v := simclock.NewVirtual()
		defer v.Close()
		s := New(v, nil)
		ok := true
		v.Run(func() {
			if err := s.CreateQueue("dlq", "t", DefaultConfig()); err != nil {
				ok = false
				return
			}
			if err := s.CreateQueue("q", "t", Config{
				VisibilityTimeout: time.Second, MaxReceive: 3, DeadLetter: "dlq",
			}); err != nil {
				ok = false
				return
			}
			rng := rand.New(rand.NewSource(seed))
			const n = 40
			for i := 0; i < n; i++ {
				if _, err := s.Send("q", []byte(fmt.Sprint(i))); err != nil {
					ok = false
					return
				}
			}
			acked := map[string]bool{}
			// Consume with random behaviour until the queue drains.
			for round := 0; round < 200; round++ {
				ds, err := s.Receive("q", 5)
				if err != nil {
					ok = false
					return
				}
				if len(ds) == 0 {
					v.Sleep(1200 * time.Millisecond) // let inflight time out
					if queued(s, "q") == 0 {
						break
					}
					continue
				}
				for _, d := range ds {
					switch rng.Intn(2) {
					case 0: // ack
						if err := s.Ack("q", d.ReceiptHandle); err != nil {
							ok = false
							return
						}
						acked[string(d.Body)] = true
					case 1: // drop (let visibility lapse)
					}
				}
			}
			// Everything not acked must be in the DLQ.
			inDLQ := map[string]bool{}
			for {
				ds, _ := s.Receive("dlq", 10)
				if len(ds) == 0 {
					break
				}
				for _, d := range ds {
					inDLQ[string(d.Body)] = true
					_ = s.Ack("dlq", d.ReceiptHandle)
				}
			}
			for i := 0; i < n; i++ {
				id := fmt.Sprint(i)
				if !acked[id] && !inDLQ[id] {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
