package pulsar

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestInboxFIFOAcrossSegments(t *testing.T) {
	in := newInbox()
	const n = receiverQueue - 7 // push two, pop one: the ring fills to n and wraps once
	next := int64(0)
	for i := 0; i < n; i++ {
		for _, seq := range []int64{2 * int64(i), 2*int64(i) + 1} {
			if !in.push(&Message{Seq: seq}) {
				t.Fatalf("push %d refused with %d queued", seq, in.len())
			}
		}
		m, ok := in.pop()
		if !ok || m.Seq != next {
			t.Fatalf("pop = (%v, %v), want seq %d", m.Seq, ok, next)
		}
		next++
	}
	for ; next < 2*n; next++ {
		m, ok := in.pop()
		if !ok || m.Seq != next {
			t.Fatalf("drain pop = (%v, %v), want seq %d", m.Seq, ok, next)
		}
	}
	if m, ok := in.pop(); ok {
		t.Fatalf("pop on empty inbox returned %v", m.Seq)
	}
	if in.len() != 0 {
		t.Fatalf("len = %d after drain, want 0", in.len())
	}
}

// TestInboxZeroesConsumedSlots checks popped slots drop their payload
// references so the GC can reclaim payloads while the ring is still live.
func TestInboxZeroesConsumedSlots(t *testing.T) {
	in := newInbox()
	for i := 0; i < 8; i++ {
		in.push(&Message{Seq: int64(i), Payload: make([]byte, 16)})
	}
	for i := 0; i < 8; i++ {
		if _, ok := in.pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
		if in.slots[i].msg.Payload != nil {
			t.Fatalf("slot %d still references its payload after pop", i)
		}
	}
}

func TestInboxLen(t *testing.T) {
	in := newInbox()
	for i := 0; i < 5; i++ {
		in.push(&Message{Seq: int64(i)})
	}
	if in.len() != 5 {
		t.Fatalf("len = %d, want 5", in.len())
	}
	in.pop()
	in.pop()
	if in.len() != 3 {
		t.Fatalf("len = %d, want 3", in.len())
	}
}

// TestInboxMPSCStress drives many concurrent producers against the single
// consumer (run under -race in CI's alloc-gate job): every message must
// arrive exactly once, and each producer's messages must arrive in the
// order it pushed them — the ordering contract broker dispatch relies on. A
// producer that finds the ring full tries again, as a broker's next dispatch
// round does.
func TestInboxMPSCStress(t *testing.T) {
	const producers = 8
	const perProducer = 4 * receiverQueue

	in := newInbox()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !in.push(&Message{Seq: int64(i), Key: string(rune('A' + pr))}) {
					runtime.Gosched()
				}
			}
		}(pr)
	}

	lastSeq := make(map[string]int64, producers)
	got := 0
	for got < producers*perProducer {
		m, ok := in.pop()
		if !ok {
			runtime.Gosched() // producers still in flight
			continue
		}
		if last, seen := lastSeq[m.Key]; seen && m.Seq != last+1 {
			t.Fatalf("producer %s: seq %d arrived after %d", m.Key, m.Seq, last)
		} else if !seen && m.Seq != 0 {
			t.Fatalf("producer %s: first seq = %d, want 0", m.Key, m.Seq)
		}
		lastSeq[m.Key] = m.Seq
		got++
	}
	wg.Wait()
	if m, ok := in.pop(); ok {
		t.Fatalf("extra message after full drain: %+v", m)
	}
}

// TestReceiverQueueMatchesFIFOOracle checks the ring against what a queue is:
// 4 producers push their own numbered streams in random bursts, backing off
// when refused; 1 consumer pops in random bursts. Each producer's stream must
// come out whole and in order. With the producers stopped, a single-threaded
// phase checks the bound exactly against a slice: push is refused when, and
// only when, receiverQueue messages are unpopped, at any offset into the ring.
// CI runs it under -race at GOMAXPROCS 1, 2 and 8.
func TestReceiverQueueMatchesFIFOOracle(t *testing.T) {
	const producers = 4
	const perProducer = 5 * receiverQueue // every producer laps the ring

	in := newInbox()
	var refused [producers]int
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pr)))
			for i := 0; i < perProducer; {
				for burst := 1 + rng.Intn(300); burst > 0 && i < perProducer; burst-- {
					if in.push(&Message{Seq: int64(i), Topic: string(rune('A' + pr))}) {
						i++
					} else {
						refused[pr]++
						runtime.Gosched()
					}
				}
				runtime.Gosched()
			}
		}(pr)
	}
	rng := rand.New(rand.NewSource(99))
	next := map[string]int64{}
	for got := 0; got < producers*perProducer; {
		for burst := 1 + rng.Intn(600); burst > 0; burst-- {
			m, ok := in.pop()
			if !ok {
				break
			}
			if m.Seq != next[m.Topic] {
				t.Fatalf("producer %s: popped seq %d, want %d", m.Topic, m.Seq, next[m.Topic])
			}
			next[m.Topic]++
			got++
		}
		if n := in.len(); n < 0 || n > receiverQueue {
			t.Fatalf("len = %d, outside [0, %d]", n, receiverQueue)
		}
		runtime.Gosched()
	}
	wg.Wait()
	if m, ok := in.pop(); ok {
		t.Fatalf("extra message after every stream came out whole: %+v", m)
	}
	t.Logf("pushes refused per producer: %v", refused)

	// The ring's head is now wherever the race left it. Random pushes and
	// pops against a slice: same answers, and full means receiverQueue.
	var oracle []int64
	seq, full, empty := int64(0), 0, 0
	for step := 0; step < 20*receiverQueue; step++ {
		// Lean towards pushing until full, then towards popping until empty.
		push := rng.Intn(100) < 85
		if step/(2*receiverQueue)%2 == 1 {
			push = !push
		}
		if push {
			ok := in.push(&Message{Seq: seq})
			if want := len(oracle) < receiverQueue; ok != want {
				t.Fatalf("step %d: push = %v with %d unpopped, want %v", step, ok, len(oracle), want)
			}
			if ok {
				oracle = append(oracle, seq)
				seq++
			} else {
				full++
			}
		} else {
			m, ok := in.pop()
			if ok != (len(oracle) > 0) || (ok && m.Seq != oracle[0]) {
				t.Fatalf("step %d: pop = (%d, %v), the oracle holds %d from %v", step, m.Seq, ok, len(oracle), oracle[:min(1, len(oracle))])
			}
			if ok {
				oracle = oracle[1:]
			} else {
				empty++
			}
		}
		if in.len() != len(oracle) {
			t.Fatalf("step %d: len = %d, the oracle holds %d", step, in.len(), len(oracle))
		}
	}
	if full == 0 || empty == 0 {
		t.Fatalf("the walk met a full ring %d times and an empty one %d times, want both", full, empty)
	}
}
