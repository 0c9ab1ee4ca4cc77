package faas

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/blob"
	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

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
		v.Sleep(time.Second)
	})
	if len(events) != 1 {
		t.Fatalf("events = %+v, want one put for photos only", events)
	}
	if put := events[0]; put.Type != "put" || put.Key != "cat.jpg" || put.Size != 3 {
		t.Fatalf("put event = %+v", put)
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
		results, _ := rep.Wait()
		if st, _ := p.StatsFor("t", "f"); len(results) != 3 || st.Invocations != 3 || st.Throttles+st.Failures != 0 {
			t.Errorf("results=%d stats=%+v", len(results), st)
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

// TestDriveCallOrder: Wait hands back call i's result and error in slot i
// though the calls complete last to first, and a nil payloads gives every
// call a nil input.
func TestDriveCallOrder(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	const n = 8
	errBad := errors.New("bad payload")
	var nilInputs atomic.Int32
	// Call i works n-i ms, so later calls finish first; a payload ending in
	// "!" fails.
	h := func(ctx *Ctx, in []byte) ([]byte, error) {
		if in == nil {
			nilInputs.Add(1)
			return nil, nil
		}
		i, err := strconv.Atoi(strings.TrimSuffix(string(in), "!"))
		if err != nil {
			return nil, err
		}
		ctx.Work(time.Duration(n-i) * time.Millisecond)
		if strings.HasSuffix(string(in), "!") {
			return nil, errBad
		}
		return in, nil
	}
	must(t, p.Register("f", "t", h, Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond, MaxRetries: -1}))
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(strconv.Itoa(i))
		if i%3 == 1 {
			payloads[i] = append(payloads[i], '!')
		}
	}
	v.Run(func() {
		results, errs := Drive(p, "t", "f", payloads, make([]time.Duration, n)).Wait()
		if len(results) != n || len(errs) != n {
			t.Fatalf("%d results, %d errors, want %d each", len(results), len(errs), n)
		}
		for i := range payloads {
			if fail := i%3 == 1; fail != errors.Is(errs[i], errBad) || fail != (errs[i] != nil) {
				t.Errorf("call %d: err %v, want failure %v", i, errs[i], fail)
			} else if !fail && string(results[i].Output) != string(payloads[i]) {
				t.Errorf("call %d: output %q, want %q", i, results[i].Output, payloads[i])
			}
			if i > 0 && results[i].Latency >= results[i-1].Latency {
				t.Errorf("call %d finished after call %d (%v ≥ %v): completion order is not reversed", i, i-1, results[i].Latency, results[i-1].Latency)
			}
		}

		results, errs = Drive(p, "t", "f", nil, make([]time.Duration, 3)).Wait()
		if len(results) != 3 || errors.Join(errs...) != nil || nilInputs.Load() != 3 {
			t.Errorf("nil payloads: %d results, errors %v, %d nil inputs; want 3, none, 3", len(results), errs, nilInputs.Load())
		}
	})
}

// newTopics builds a Pulsar cluster with the given number of brokers over
// three bookies, on p's clock.
func newTopics(v *simclock.Virtual, brokers int) *pulsar.Cluster {
	meta := coord.NewStore(v)
	ls := ledger.NewSystem(v, meta)
	for i := 0; i < 3; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	cl := pulsar.NewCluster(v, meta, ls, billing.NewMeter(), pulsar.ClusterConfig{})
	for i := 0; i < brokers; i++ {
		cl.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	return cl
}

// TestBindTopicCountsPerKey is Figure 3's pattern: a function keeping
// per-key counters in its closure publishes each updated count to an output
// topic under the input message's key.
func TestBindTopicCountsPerKey(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	counts := map[string]int{} // one binding: the handler runs serially
	must(t, p.Register("counter", "t", func(_ *Ctx, key []byte) ([]byte, error) {
		counts[string(key)]++
		return []byte(fmt.Sprintf("%s=%d", key, counts[string(key)])), nil
	}, Config{}))
	v.Run(func() {
		must(t, cl.CreateTopic("events", 0))
		must(t, cl.CreateTopic("counts", 0))
		must(t, BindTopic(p, cl, "events", "t", "counter", "counts"))
		prod, err := cl.CreateProducer("events")
		must(t, err)
		for i := 0; i < 9; i++ {
			k := fmt.Sprintf("k%d", i%3)
			_, err := prod.SendKey(k, []byte(k))
			must(t, err)
		}
	})
	v.Run(func() {
		out, err := cl.Subscribe("counts", "check", pulsar.Exclusive, pulsar.Earliest)
		must(t, err)
		results := map[string]bool{}
		for i := 0; i < 9; i++ {
			m, ok := out.Receive(time.Second)
			if !ok {
				t.Fatalf("timeout after %d results", i)
			}
			if !strings.HasPrefix(string(m.Payload), m.Key+"=") {
				t.Errorf("output %q published under key %q, want its input's key", m.Payload, m.Key)
			}
			results[string(m.Payload)] = true
			must(t, out.Ack(m))
		}
		for _, k := range []string{"k0", "k1", "k2"} {
			if !results[k+"=3"] {
				t.Errorf("missing final count for %s: %v", k, results)
			}
		}
		if n, err := cl.Backlog("events", "fn-t-counter"); err != nil || n != 0 {
			t.Errorf("input backlog = %d (%v), want 0: every message acked", n, err)
		}
	})
}

// TestBindTopicParallelBindingsShareWork: binding a function twice puts two
// consumers on its Shared subscription, which share the topic's messages.
func TestBindTopicParallelBindingsShareWork(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	var handled atomic.Int64
	must(t, p.Register("sink", "t", func(*Ctx, []byte) ([]byte, error) {
		handled.Add(1)
		return nil, nil
	}, Config{}))
	v.Run(func() {
		must(t, cl.CreateTopic("in", 0))
		must(t, BindTopic(p, cl, "in", "t", "sink", ""))
		must(t, BindTopic(p, cl, "in", "t", "sink", ""))
		prod, _ := cl.CreateProducer("in")
		for i := 0; i < 30; i++ {
			_, err := prod.Send([]byte("x"))
			must(t, err)
		}
	})
	if n := handled.Load(); n != 30 {
		t.Fatalf("handled = %d, want 30", n)
	}
	// Round-robin dispatch gave each binding half, so the two ran at once:
	// two instances, each paying its cold start.
	if st, _ := p.StatsFor("t", "sink"); st.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2 (one instance per binding)", st.ColdStarts)
	}
}

// TestBindTopicTwoInputTopics: a function bound once per topic consumes both.
func TestBindTopicTwoInputTopics(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	var handled atomic.Int64
	must(t, p.Register("merge", "t", func(*Ctx, []byte) ([]byte, error) {
		handled.Add(1)
		return nil, nil
	}, Config{}))
	v.Run(func() {
		must(t, cl.CreateTopic("a", 0))
		must(t, cl.CreateTopic("b", 0))
		must(t, BindTopic(p, cl, "a", "t", "merge", ""))
		must(t, BindTopic(p, cl, "b", "t", "merge", ""))
		pa, _ := cl.CreateProducer("a")
		pb, _ := cl.CreateProducer("b")
		for i := 0; i < 3; i++ {
			_, err := pa.Send([]byte("x"))
			must(t, err)
			_, err = pb.Send([]byte("y"))
			must(t, err)
		}
	})
	if n := handled.Load(); n != 6 {
		t.Fatalf("handled = %d, want 6", n)
	}
}

func TestBindTopicUnknownTopic(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	must(t, p.Register("f", "t", func(*Ctx, []byte) ([]byte, error) { return nil, nil }, Config{}))
	v.Run(func() {
		if err := BindTopic(p, cl, "nope", "t", "f", ""); err == nil {
			t.Fatal("binding a topic that does not exist succeeded")
		}
	})
}

// TestBindTopicFailedMessageStaysUnacked: a message whose invocation keeps
// failing is invoked five times, a second apart, and then dead-lettered
// under its key, publishing nothing; the next message is unaffected.
func TestBindTopicFailedMessageStaysUnacked(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	var booms atomic.Int64
	must(t, p.Register("meta", "t", func(_ *Ctx, in []byte) ([]byte, error) {
		if string(in) == "boom" {
			booms.Add(1)
			return nil, errTransient
		}
		return []byte("seen"), nil
	}, Config{}))
	v.Run(func() {
		must(t, cl.CreateTopic("in", 0))
		must(t, cl.CreateTopic("out", 0))
		must(t, BindTopic(p, cl, "in", "t", "meta", "out"))
		prod, _ := cl.CreateProducer("in")
		_, err := prod.SendKey("k", []byte("boom"))
		must(t, err)
		_, err = prod.SendKey("k", []byte("ok"))
		must(t, err)
	})
	v.Run(func() {
		if n := booms.Load(); n != 5 {
			t.Errorf("the failing message was invoked %d times, want 5", n)
		}
		if n, err := cl.Backlog("in", "fn-t-meta"); err != nil || n != 0 {
			t.Errorf("backlog = %d (%v), want 0: one message acked, one dead-lettered", n, err)
		}
		dlq, err := cl.Subscribe("in-fn-t-meta-DLQ", "check", pulsar.Exclusive, pulsar.Earliest)
		must(t, err)
		if m, ok := dlq.Receive(time.Second); !ok || string(m.Payload) != "boom" || m.Key != "k" {
			t.Errorf("dead letter = %q (key %q, ok %v), want boom keyed k", m.Payload, m.Key, ok)
		}
		out, err := cl.Subscribe("out", "check", pulsar.Exclusive, pulsar.Earliest)
		must(t, err)
		if m, ok := out.Receive(time.Second); !ok || string(m.Payload) != "seen" || m.Key != "k" {
			t.Errorf("output = %q (key %q, ok %v), want the ok message's result keyed k", m.Payload, m.Key, ok)
		}
		if m, ok := out.Receive(time.Second); ok {
			t.Errorf("second output %q: the failed message published", m.Payload)
		}
	})
}

// TestBindTopicThrottledEventComesBack is Fig. 3's Count-Min function under
// a concurrency cap: while a direct invoke holds the one slot, the binding's
// invocation is throttled, and its event comes back a second later and is
// counted exactly once.
func TestBindTopicThrottledEventComesBack(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	counted := map[string]int{} // one binding: the handler runs serially
	var countedAt time.Time
	must(t, p.Register("count", "t", func(ctx *Ctx, in []byte) ([]byte, error) {
		if string(in) == "hold" {
			ctx.Work(300 * time.Millisecond)
			return nil, nil
		}
		counted[string(in)]++
		countedAt = v.Now()
		return nil, nil
	}, Config{MaxConcurrency: 1, Prewarm: 1, WarmStart: time.Millisecond}))
	var published time.Time
	v.Run(func() {
		must(t, cl.CreateTopic("events", 0))
		must(t, BindTopic(p, cl, "events", "t", "count", ""))
		prod, err := cl.CreateProducer("events")
		must(t, err)
		v.Go(func() {
			_, err := p.InvokeFor("t", "count", []byte("hold"))
			must(t, err)
		})
		v.Sleep(time.Millisecond) // the direct invoke holds the slot
		_, err = prod.SendKey("e1", []byte("e1"))
		must(t, err)
		published = v.Now()
		if n := counted["e1"]; n != 0 {
			t.Errorf("e1 counted %d times while the slot was held, want 0", n)
		}
	})
	if st, _ := p.StatsFor("t", "count"); st.Throttles != 1 {
		t.Errorf("throttles = %d, want 1: the binding's first invocation is shed", st.Throttles)
	}
	if n := counted["e1"]; n != 1 {
		t.Fatalf("e1 counted %d times, want exactly once after the slot freed", n)
	}
	if d := countedAt.Sub(published); d != time.Second+time.Millisecond {
		t.Errorf("e1 counted %v after its publish, want the 1 s redelivery delay plus a warm start", d)
	}
	if n, err := cl.Backlog("events", "fn-t-count"); err != nil || n != 0 {
		t.Fatalf("backlog = %d (%v), want 0", n, err)
	}
}

// TestBindTopicOneDrainUnderConcurrentPublishers: four producers publishing
// at once, past the receive queue's 1024 slots, wake one binding from many
// goroutines; its invocations never overlap, and each message is invoked
// exactly once.
func TestBindTopicOneDrainUnderConcurrentPublishers(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 2)
	var inside atomic.Int32
	var mu sync.Mutex
	seen := map[string]int{}
	must(t, p.Register("f", "t", func(ctx *Ctx, in []byte) ([]byte, error) {
		if inside.Add(1) != 1 {
			t.Error("two invocations of one binding overlap")
		}
		ctx.Work(time.Microsecond)
		inside.Add(-1)
		mu.Lock()
		seen[string(in)]++
		mu.Unlock()
		return nil, nil
	}, Config{WarmStart: time.Microsecond, Prewarm: 1}))
	const producers, each = 4, 400
	v.Run(func() {
		must(t, cl.CreateTopic("in", 4))
		must(t, BindTopic(p, cl, "in", "t", "f", ""))
		wg := simclock.NewGroup(v)
		for w := 0; w < producers; w++ {
			wg.Go(func() {
				prod, err := cl.CreateProducer("in")
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < each; i++ {
					m := fmt.Sprintf("w%d-%d", w, i)
					if _, err := prod.SendKey(m, []byte(m)); err != nil {
						t.Error(err)
					}
				}
			})
		}
		wg.Wait()
	})
	if len(seen) != producers*each {
		t.Fatalf("%d distinct messages invoked, want %d", len(seen), producers*each)
	}
	for m, n := range seen {
		if n != 1 {
			t.Fatalf("%s invoked %d times, want once", m, n)
		}
	}
}

// TestBindTopicSurvivesOwnershipChange: a binding idle across a move and a
// failover is woken by the new owner's claim, so the messages published
// after each change are invoked before the next one, and every message is
// acked.
func TestBindTopicSurvivesOwnershipChange(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 3)
	var mu sync.Mutex
	seen := map[string]int{}
	must(t, p.Register("f", "t", func(_ *Ctx, in []byte) ([]byte, error) {
		mu.Lock()
		seen[string(in)]++
		mu.Unlock()
		return nil, nil
	}, Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond}))
	const part = "in-partition-0"
	v.Run(func() {
		must(t, cl.CreateTopic("in", 1))
		must(t, BindTopic(p, cl, "in", "t", "f", ""))
		prod, err := cl.CreateProducer("in")
		must(t, err)
		publish := func(phase string) {
			for i := 0; i < 8; i++ {
				m := fmt.Sprintf("%s-%d", phase, i)
				_, err := prod.SendKey(m, []byte(m))
				must(t, err)
			}
			v.Sleep(100 * time.Millisecond) // the binding drains and goes idle
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < 8; i++ {
				if m := fmt.Sprintf("%s-%d", phase, i); seen[m] == 0 {
					t.Errorf("%s not invoked within 100ms", m)
				}
			}
		}
		publish("start")
		must(t, cl.MoveTopic(part, "broker-1"))
		publish("moved")
		b1, _ := cl.Broker("broker-1")
		b1.SetDown(true)
		publish("failover")
	})
	v.Run(func() {
		if n, err := cl.Backlog("in", "fn-t-f"); err != nil || n != 0 {
			t.Errorf("backlog = %d (%v), want 0", n, err)
		}
	})
}

// TestBindTopicIdleLeavesNoGoroutine: a binding holds a goroutine only while
// it has messages, so the run ends at the last invocation's instant with no
// stop call.
func TestBindTopicIdleLeavesNoGoroutine(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cl := newTopics(v, 1)
	var last time.Time
	must(t, p.Register("f", "t", func(*Ctx, []byte) ([]byte, error) {
		last = v.Now()
		return nil, nil
	}, Config{}))
	end := v.Run(func() {
		must(t, cl.CreateTopic("in", 0))
		must(t, BindTopic(p, cl, "in", "t", "f", ""))
		prod, _ := cl.CreateProducer("in")
		for i := 0; i < 3; i++ {
			_, err := prod.Send([]byte("x"))
			must(t, err)
		}
	})
	// A 250 ms cold start, then two 1 ms warm starts.
	if want := simclock.Epoch.Add(252 * time.Millisecond); !last.Equal(want) || !end.Equal(last) {
		t.Fatalf("last invocation at %v, run ended at %v; want both at %v", last.Sub(simclock.Epoch), end.Sub(simclock.Epoch), want.Sub(simclock.Epoch))
	}
}
