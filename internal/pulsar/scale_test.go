package pulsar

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/workload"
)

// Soak conventions. Arrival instants are quantized to a 10µs grid and each
// lane adds its own sub-grid offset, so no two lanes ever act at the same
// virtual instant: with ServiceTime a multiple of the grid, capacity-model
// wakeups stay on each lane's offset lattice and the discrete-event schedule
// is fully deterministic.
const (
	soakGrid = 10 * time.Microsecond
	soakSvc  = time.Millisecond // per-message broker service time ⇒ 1000 msg/s/broker
)

// laneSchedule builds an open-loop arrival schedule for one lane.
func laneSchedule(rps float64, window time.Duration, seed int64, lane int) []time.Duration {
	arr := workload.Arrivals(workload.Constant(rps), window, seed)
	off := time.Duration(lane+1) * 13 * time.Nanosecond
	out := make([]time.Duration, len(arr))
	for i, at := range arr {
		out[i] = at.Truncate(soakGrid) + off
	}
	return out
}

// runLane replays a schedule open-loop with backpressure: if the lane is
// ahead it sleeps until the next arrival; if the broker has it queued behind
// other work it falls behind and sends back-to-back. It stops issuing new
// sends once the window has elapsed and returns the completion count.
func runLane(t *testing.T, e *env, prod *Producer, key string, sched []time.Duration, window time.Duration, start time.Time) int64 {
	var n int64
	for _, at := range sched {
		if d := at - e.v.Now().Sub(start); d > 0 {
			e.v.Sleep(d)
		}
		if e.v.Now().Sub(start) >= window {
			break
		}
		var err error
		if key == "" {
			_, err = prod.Send([]byte("soak"))
		} else {
			_, err = prod.SendKey(key, []byte("soak"))
		}
		if err != nil {
			t.Errorf("lane send: %v", err)
			return n
		}
		n++
	}
	return n
}

// scaleTopicNames picks `perClass` plain-topic names per election residue so
// a `classes`-broker cluster gets a balanced initial placement.
func scaleTopicNames(classes, perClass int) []string {
	buckets := make([]int, classes)
	var out []string
	for i := 0; len(out) < classes*perClass; i++ {
		n := fmt.Sprintf("lane-%03d", i)
		c := int(fnv1a(n)) % classes
		if buckets[c] < perClass {
			buckets[c]++
			out = append(out, n)
		}
	}
	return out
}

// runScaleSoak drives 16 open-loop lanes (300 msg/s each, 500ms window) at a
// cluster of the given size and returns total completions plus a digest of
// per-topic counts and final ownership.
func runScaleSoak(t *testing.T, brokers int) (int64, string) {
	t.Helper()
	e := newEnvCfg(t, brokers, 3, ClusterConfig{ServiceTime: soakSvc})
	window := 500 * time.Millisecond
	topics := scaleTopicNames(4, 4)
	counts := make([]int64, len(topics))
	e.v.Run(func() {
		prods := make([]*Producer, len(topics))
		for i, tp := range topics {
			must(t, e.cluster.CreateTopic(tp, 0))
			p, err := e.cluster.CreateProducer(tp)
			must(t, err)
			prods[i] = p
			// Elect owners sequentially so placement is settled (and
			// deterministic) before the concurrent phase begins.
			if _, _, err := e.cluster.ensureOwner(tp); err != nil {
				t.Fatal(err)
			}
		}
		start := e.v.Now()
		wg := simclock.NewGroup(e.v)
		for i := range topics {
			sched := laneSchedule(300, window, int64(100+i), i)
			wg.Go(func() {
				atomic.AddInt64(&counts[i], runLane(t, e, prods[i], "", sched, window, start))
			})
		}
		wg.Wait()
	})
	var total int64
	var dig strings.Builder
	owned := map[string]int{}
	for i, tp := range topics {
		total += counts[i]
		b, _, err := e.cluster.ensureOwner(tp)
		must(t, err)
		owned[b.ID]++
		fmt.Fprintf(&dig, "%s=%d@%s;", tp, counts[i], b.ID)
	}
	if len(owned) != brokers {
		t.Errorf("%d brokers, but only %d own topics: %v", brokers, len(owned), owned)
	}
	return total, dig.String()
}

// TestMultiBrokerScaleOut proves near-linear scale-out: the same seeded
// 16-lane open-loop workload completes ≥3× as many publishes on 4 brokers as
// on 1, because every broker's FIFO capacity model admits work concurrently.
// The 4-broker run is repeated to pin down schedule determinism.
func TestMultiBrokerScaleOut(t *testing.T) {
	total1, _ := runScaleSoak(t, 1)
	total4, dig4 := runScaleSoak(t, 4)
	if total1 == 0 {
		t.Fatal("single-broker soak completed nothing")
	}
	ratio := float64(total4) / float64(total1)
	t.Logf("1-broker=%d 4-broker=%d ratio=%.2f", total1, total4, ratio)
	if ratio < 3 {
		t.Fatalf("4-broker throughput only %.2fx single broker (%d vs %d), want ≥3x", ratio, total4, total1)
	}
	total4b, dig4b := runScaleSoak(t, 4)
	if total4b != total4 || dig4b != dig4 {
		t.Fatalf("4-broker soak not deterministic:\n run1 total=%d %s\n run2 total=%d %s", total4, dig4, total4b, dig4b)
	}
}

// TestLoadManagerRebalanceUnderLoad starts every topic on one broker of
// four (names chosen to collide in the election hash) and lets the load
// manager redistribute them mid-soak. The cluster must end with the load
// spread across ≥3 brokers via ≥3 cursor-exact moves, with no lane erroring.
func TestLoadManagerRebalanceUnderLoad(t *testing.T) {
	run := func() (int64, string) {
		e := newEnvCfg(t, 4, 3, ClusterConfig{ServiceTime: soakSvc})
		window := time.Second
		// 8 topics that all elect broker-0 in a 4-broker cluster.
		var topics []string
		for i := 0; len(topics) < 8; i++ {
			n := fmt.Sprintf("skew-%03d", i)
			if int(fnv1a(n))%4 == 0 {
				topics = append(topics, n)
			}
		}
		counts := make([]int64, len(topics))
		var events []LoadEvent
		e.v.Run(func() {
			prods := make([]*Producer, len(topics))
			for i, tp := range topics {
				must(t, e.cluster.CreateTopic(tp, 0))
				p, err := e.cluster.CreateProducer(tp)
				must(t, err)
				prods[i] = p
				b, _, err := e.cluster.ensureOwner(tp)
				must(t, err)
				if b.ID != "broker-0" {
					t.Fatalf("%s elected %s, want broker-0", tp, b.ID)
				}
			}
			lm := e.cluster.NewLoadManager(LoadManagerConfig{
				Interval:       100*time.Millisecond + 333*time.Nanosecond,
				OverloadFactor: 1.1,
				MinMoveRate:    10,
			})
			lm.Start()
			start := e.v.Now()
			wg := simclock.NewGroup(e.v)
			for i := range topics {
				sched := laneSchedule(150, window, int64(200+i), i)
				wg.Go(func() {
					atomic.AddInt64(&counts[i], runLane(t, e, prods[i], "", sched, window, start))
				})
			}
			wg.Wait()
			lm.Stop()
			events = lm.Report().Events
		})
		moves := 0
		for _, ev := range events {
			if ev.Action != "move" {
				t.Fatalf("unexpected event %+v", ev)
			}
			moves++
		}
		if moves < 3 {
			t.Fatalf("only %d moves in a 10-tick window: %+v", moves, events)
		}
		owned := map[string]int{}
		var dig strings.Builder
		var total int64
		for i, tp := range topics {
			total += counts[i]
			b, _, err := e.cluster.ensureOwner(tp)
			must(t, err)
			owned[b.ID]++
			fmt.Fprintf(&dig, "%s=%d@%s;", tp, counts[i], b.ID)
		}
		for _, ev := range events {
			fmt.Fprintf(&dig, "%s:%s>%s;", ev.Topic, ev.From, ev.To)
		}
		if len(owned) < 3 {
			t.Fatalf("load still on %d broker(s) after rebalance: %v", len(owned), owned)
		}
		return total, dig.String()
	}
	total, dig := run()
	t.Logf("completions=%d digest=%s", total, dig)
	total2, dig2 := run()
	if total2 != total || dig2 != dig {
		t.Fatalf("rebalance soak not deterministic:\n run1 total=%d %s\n run2 total=%d %s", total, dig, total2, dig2)
	}
}

// TestManyTopicSoak is the big-cardinality soak: 10k topics spread across 4
// brokers, 100k keyed publishes drawn from a 1M-identity Zipf key space.
// Skipped under -short; the full `go test ./...` run covers it.
func TestManyTopicSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("big-cardinality soak; run without -short")
	}
	const (
		nTopics = 10_000
		nMsgs   = 100_000
	)
	e := newEnvCfg(t, 4, 3, ClusterConfig{})
	e.v.Run(func() {
		topics := make([]string, nTopics)
		for i := range topics {
			topics[i] = fmt.Sprintf("soak-%05d", i)
			must(t, e.cluster.CreateTopic(topics[i], 0))
		}
		keys := workload.ZipfKeys(1_000_000, 1.2, nMsgs, 42)
		prods := map[string]*Producer{}
		// Deterministic skewed topic choice: route each key identity to a
		// stable topic so hot identities make hot topics.
		var sent int64
		for i, k := range keys {
			tp := topics[int(fnv1a(k))%nTopics]
			p := prods[tp]
			if p == nil {
				var err error
				p, err = e.cluster.CreateProducer(tp)
				must(t, err)
				prods[tp] = p
			}
			if _, err := p.SendKey(k, []byte("x")); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			sent++
			if i%1000 == 999 {
				e.v.Sleep(time.Millisecond)
			}
		}
		if sent != nMsgs {
			t.Fatalf("sent %d, want %d", sent, nMsgs)
		}
		// Ownership spread: every broker carries a fair share of the topics
		// that saw traffic.
		lm := e.cluster.NewLoadManager(LoadManagerConfig{Interval: 100 * time.Millisecond})
		lm.Tick()
		rep := lm.Report()
		if len(rep.Brokers) != 4 {
			t.Fatalf("report brokers = %d", len(rep.Brokers))
		}
		loaded := 0
		for _, b := range rep.Brokers {
			if b.Down {
				t.Fatalf("broker %s down", b.ID)
			}
			loaded += b.Topics
			if b.Topics < len(prods)/8 {
				t.Fatalf("broker %s owns %d of %d active topics — placement skew", b.ID, b.Topics, len(prods))
			}
		}
		if loaded != len(prods) {
			t.Fatalf("report covers %d topics, %d saw traffic", loaded, len(prods))
		}
	})
}
