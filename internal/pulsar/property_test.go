package pulsar

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPropertyPerKeyOrderOnPartitionedTopics: for any random keyed stream
// over a partitioned topic, each key's messages arrive in publish order.
func TestPropertyPerKeyOrderOnPartitionedTopics(t *testing.T) {
	f := func(seed int64) bool {
		e := newEnv(t, 2, 3)
		ok := true
		e.v.Run(func() {
			if err := e.cluster.CreateTopic("pt", 3); err != nil {
				ok = false
				return
			}
			prod, err := e.cluster.CreateProducer("pt")
			if err != nil {
				ok = false
				return
			}
			rng := rand.New(rand.NewSource(seed))
			const msgs = 60
			next := map[string]int{}
			for i := 0; i < msgs; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(5))
				if _, err := prod.SendKey(key, []byte(fmt.Sprint(next[key]))); err != nil {
					ok = false
					return
				}
				next[key]++
			}
			cons, err := e.cluster.Subscribe("pt", "s", Exclusive, Earliest)
			if err != nil {
				ok = false
				return
			}
			seen := map[string]int{}
			for i := 0; i < msgs; i++ {
				m, got := cons.Receive(time.Second)
				if !got {
					ok = false
					return
				}
				var n int
				fmt.Sscanf(string(m.Payload), "%d", &n)
				if n != seen[m.Key] {
					ok = false
					return
				}
				seen[m.Key]++
				_ = cons.Ack(m)
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoLossUnderRandomBrokerKills: messages published around random
// single-broker failures are all eventually received (at-least-once).
func TestPropertyNoLossUnderRandomBrokerKills(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			e := newEnv(t, 3, 4)
			e.v.Run(func() {
				must(t, e.cluster.CreateTopic("t", 0))
				prod, _ := e.cluster.CreateProducer("t")
				cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
				must(t, err)
				rng := rand.New(rand.NewSource(seed))
				published := 0
				for round := 0; round < 4; round++ {
					for i := 0; i < 25; i++ {
						if _, err := prod.Send([]byte{byte(i)}); err == nil {
							published++
						}
					}
					// Kill the current owner (another broker takes over);
					// revive everyone else so the cluster always has
					// capacity to fail over to.
					if data, held := e.cluster.meta.LockHolder("/pulsar/owners/t"); held {
						if b, ok := e.cluster.Broker(string(data)); ok && rng.Intn(2) == 0 {
							b.SetDown(true)
							for i := 0; i < 3; i++ {
								other, _ := e.cluster.Broker(fmt.Sprintf("broker-%d", i))
								if other != nil && other != b && other.Down() {
									other.SetDown(false)
								}
							}
						}
					}
				}
				seen := map[int64]bool{}
				for {
					m, got := cons.Receive(100 * time.Millisecond)
					if !got {
						break
					}
					seen[m.Seq] = true
					_ = cons.Ack(m)
				}
				if len(seen) < published {
					t.Errorf("seed %d: published %d, received %d distinct", seed, published, len(seen))
				}
			})
		})
	}
}

// TestBacklogAccounting: backlog reflects unacked counts exactly.
func TestBacklogAccounting(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 2))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Shared, Earliest)
		must(t, err)
		for i := 0; i < 10; i++ {
			_, err := prod.Send([]byte{byte(i)})
			must(t, err)
		}
		n, err := e.cluster.Backlog("t", "s")
		must(t, err)
		if n != 10 {
			t.Fatalf("backlog = %d, want 10", n)
		}
		for i := 0; i < 4; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatal("receive timeout")
			}
			must(t, cons.Ack(m))
		}
		n, _ = e.cluster.Backlog("t", "s")
		if n != 6 {
			t.Fatalf("backlog = %d, want 6", n)
		}
	})
}
