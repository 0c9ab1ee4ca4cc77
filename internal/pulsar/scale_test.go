package pulsar

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
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

// TestHotKeySplitBoundedP99 drives a key-skewed workload into one partition
// of a two-partition topic until the load manager splits its key range onto
// the other broker. Per-key order must hold across the split, nothing may be
// lost or duplicated, and p99 publish latency during the move window must
// stay within 2× the steady-state p99.
func TestHotKeySplitBoundedP99(t *testing.T) {
	type sample struct {
		at  time.Duration // scheduled arrival (virtual, from soak start)
		lat time.Duration // completion - arrival: queueing + service + retries
	}
	run := func() (events []LoadEvent, splitAt time.Duration, samples []sample, dig string) {
		e := newEnvCfg(t, 2, 3, ClusterConfig{ServiceTime: 400 * time.Microsecond})
		window := 1200 * time.Millisecond
		const lanes = 4
		// 16 hot keys, all inside partition-0's range [0, 2^31): half in the
		// lower quarter (stay with the parent after a split), half in the
		// upper (move to the child). Each lane owns 4, interleaved.
		keys := append(keysInRange(0, 1<<30, 8), keysInRange(1<<30, 1<<31, 8)...)
		counter := map[string]int{}
		laneSamples := make([][]sample, lanes)
		var start time.Time
		var lm *LoadManager
		e.v.Run(func() {
			must(t, e.cluster.CreateTopic("hot", 2))
			cons, err := e.cluster.Subscribe("hot", "tail", Shared, Earliest)
			must(t, err)
			prods := make([]*Producer, lanes)
			laneMsgs := make([][]string, lanes) // pre-planned per-lane key sequence
			for i := 0; i < lanes; i++ {
				p, err := e.cluster.CreateProducer("hot")
				must(t, err)
				prods[i] = p
			}
			for _, tp := range []string{"hot-partition-0", "hot-partition-1"} {
				if _, _, err := e.cluster.ensureOwner(tp); err != nil {
					t.Fatal(err)
				}
			}
			scheds := make([][]time.Duration, lanes)
			for i := 0; i < lanes; i++ {
				scheds[i] = laneSchedule(400, window, int64(300+i), i)
				for j := range scheds[i] {
					k := keys[i*4+j%4]
					counter[k]++
					laneMsgs[i] = append(laneMsgs[i], fmt.Sprintf("%s#%d", k, counter[k]))
				}
			}
			// The first tick fires at ~150ms, giving a real pre-split steady
			// region to baseline p99 against at the same offered load.
			lm = e.cluster.NewLoadManager(LoadManagerConfig{
				Interval:       150*time.Millisecond + 333*time.Nanosecond,
				OverloadFactor: 100, // moves off: this test isolates the split path
				SplitRate:      1200,
			})
			lm.Start()
			start = e.v.Now()
			wg := simclock.NewGroup(e.v)
			for i := 0; i < lanes; i++ {
				wg.Go(func() {
					for j, at := range scheds[i] {
						if d := at - e.v.Now().Sub(start); d > 0 {
							e.v.Sleep(d)
						}
						if e.v.Now().Sub(start) >= window {
							break
						}
						msg := laneMsgs[i][j]
						k, _, _ := strings.Cut(msg, "#")
						if _, err := prods[i].SendKey(k, []byte(msg)); err != nil {
							t.Errorf("lane %d send: %v", i, err)
							return
						}
						laneSamples[i] = append(laneSamples[i], sample{at: at, lat: e.v.Now().Sub(start) - at})
					}
				})
			}
			wg.Wait()
			lm.Stop()
			events = lm.Report().Events

			// Drain everything and check per-key order + completeness. The
			// consumer discovers the split child on its next poll.
			sent := 0
			for i := range laneSamples {
				sent += len(laneSamples[i])
			}
			lastSeen := map[string]int{}
			h := fnv.New64a()
			for got := 0; got < sent; got++ {
				m, ok := cons.Receive(time.Second)
				if !ok {
					t.Fatalf("received %d of %d then timed out", got, sent)
				}
				k, seqs, _ := strings.Cut(string(m.Payload), "#")
				n, err := strconv.Atoi(seqs)
				if err != nil {
					t.Fatalf("payload %q: %v", m.Payload, err)
				}
				if n != lastSeen[k]+1 {
					t.Fatalf("key %s: received #%d after #%d (on %s)", k, n, lastSeen[k], m.Topic)
				}
				lastSeen[k] = n
				must(t, cons.Ack(m))
				fmt.Fprintf(h, "%s@%s;", m.Payload, m.Topic)
			}
			if m, ok := cons.Receive(10 * time.Millisecond); ok {
				t.Fatalf("duplicate delivery %q on %s", m.Payload, m.Topic)
			}
			dig = fmt.Sprintf("%x", h.Sum64())
		})
		for i := range laneSamples {
			samples = append(samples, laneSamples[i]...)
		}
		for _, ev := range events {
			if ev.Action == "split" {
				splitAt = ev.At.Sub(start)
				break
			}
		}
		return events, splitAt, samples, dig
	}

	events, splitAt, samples, dig := run()
	nsplits := 0
	for _, ev := range events {
		if ev.Action == "split" {
			nsplits++
		}
	}
	if nsplits < 1 {
		t.Fatalf("no split triggered; events: %+v", events)
	}
	if events[0].Action != "split" || events[0].Child == "" {
		t.Fatalf("first event not a split: %+v", events[0])
	}

	p99 := func(keep func(sample) bool) time.Duration {
		var lats []time.Duration
		for _, s := range samples {
			if keep(s) {
				lats = append(lats, s.lat)
			}
		}
		if len(lats) < 20 {
			t.Fatalf("only %d latency samples in window", len(lats))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*99/100]
	}
	// Steady state is the pre-split regime at the same offered load (cold
	// start excluded); the move window brackets the split. Comparing the
	// window against the post-split regime instead would conflate the
	// split's transient with the lower utilization it produces.
	const half = 25 * time.Millisecond
	steadyP99 := p99(func(s sample) bool { return s.at >= 50*time.Millisecond && s.at < splitAt-half })
	moveP99 := p99(func(s sample) bool { return s.at >= splitAt-half && s.at <= splitAt+half })
	afterP99 := p99(func(s sample) bool { return s.at >= splitAt+100*time.Millisecond })
	t.Logf("split at %v; p99 steady=%v move=%v (%.2fx) after=%v", splitAt, steadyP99, moveP99, float64(moveP99)/float64(steadyP99), afterP99)
	if moveP99 > 2*steadyP99 {
		t.Fatalf("p99 during move %v exceeds 2x steady-state %v", moveP99, steadyP99)
	}
	if afterP99 > steadyP99 {
		t.Fatalf("p99 after split %v did not improve on pre-split steady state %v", afterP99, steadyP99)
	}

	events2, splitAt2, _, dig2 := run()
	if len(events2) != len(events) || splitAt2 != splitAt || dig2 != dig {
		t.Fatalf("hot-key soak not deterministic:\n run1 split=%v events=%+v digest=%s\n run2 split=%v events=%+v digest=%s",
			splitAt, events, dig, splitAt2, events2, dig2)
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
