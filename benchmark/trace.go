package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the benchmark wraps from outside. Every
// span is recorded by the benchmark's own code around a call into the
// program; nothing inside the program is instrumented.
type spanKind uint8

const (
	kClient    spanKind = iota // one op as the load generator sees it: gateway.Client call(s)
	kTransport                 // http.RoundTripper.RoundTrip
	kServer                    // Gateway.ServeHTTP
	kHandler                   // the registered faas.Handler
	kSendSync                  // Producer.SendKey
	kSendBatch                 // one burst of Producer.SendAsync + Flush
	kReceive                   // Consumer.Receive
	kAck                       // Consumer.Ack
	numKinds
)

var kindNames = [numKinds]string{
	"gateway.client", "gateway.transport", "gateway.server", "faas.handler",
	"pulsar.send_sync", "pulsar.send_batch", "pulsar.receive", "pulsar.ack",
}

// kindDepth orders the kinds that nest: a span's parent is the span of the
// same op one or more depths up. The pulsar kinds are flat (depth 0).
var kindDepth = [numKinds]int{0, 1, 2, 3, 0, 0, 0, 0}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is an index into the resolved span list, -1 for a root.
type span struct {
	Kind   spanKind
	Op     uint64
	Start  int64
	End    int64
	Parent int32
}

// tracer is the in-memory span store of one traced round. add is safe from
// any goroutine; everything else runs after the round's goroutines stopped.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool // spans are dropped until the warm-up is over
	shards [16]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte // keep neighbouring shards' locks off one cache line
	}
}

func newTracer(expect int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.shards {
		t.shards[i].spans = make([]span, 0, expect/len(t.shards)+64)
	}
	return t
}

// start ends the warm-up: spans are recorded from here on. A nil tracer is
// the untraced run.
func (t *tracer) start() {
	if t != nil {
		t.on.Store(true)
	}
}

// add records one finished span. A nil tracer, or one not yet switched on,
// records nothing.
func (t *tracer) add(kind spanKind, op uint64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	sh := &t.shards[op%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{Kind: kind, Op: op, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1})
	sh.mu.Unlock()
}

// resolve merges the shards, orders spans by (op, start, depth) and links
// each nested span to its parent: the latest-started span of the same op, at
// the nearest shallower depth present, that began no later than it did.
func (t *tracer) resolve() []span {
	var all []span
	for i := range t.shards {
		all = append(all, t.shards[i].spans...)
	}
	return linkParents(all)
}

func linkParents(all []span) []span {
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return kindDepth[a.Kind] < kindDepth[b.Kind]
	})
	for lo := 0; lo < len(all); {
		hi := lo
		for hi < len(all) && all[hi].Op == all[lo].Op {
			hi++
		}
		for i := lo; i < hi; i++ {
			all[i].Parent = -1
			d := kindDepth[all[i].Kind]
			best := -1
			for j := lo; j < i; j++ { // earlier in the op: started no later
				dj := kindDepth[all[j].Kind]
				if dj < d && (best < 0 || dj >= kindDepth[all[best].Kind]) {
					best = j
				}
			}
			all[i].Parent = int32(best)
		}
		lo = hi
	}
	return all
}

// selfTimes returns, per kind, every span's self time in nanoseconds: its
// duration minus the part of its interval that its child spans cover
// (children are clipped to the parent and overlapping children count once).
func selfTimes(spans []span) [numKinds][]float64 {
	// Spans are in start order within an op, so each parent meets its
	// children in start order and one cursor per parent finds the union.
	covered := make([]int64, len(spans))
	cursor := make([]int64, len(spans))
	for i, s := range spans {
		cursor[i] = s.Start
	}
	for _, c := range spans {
		if p := c.Parent; p >= 0 {
			from, to := max(c.Start, cursor[p]), min(c.End, spans[p].End)
			if to > from {
				covered[p] += to - from
				cursor[p] = to
			}
		}
	}
	var out [numKinds][]float64
	for i, s := range spans {
		out[s.Kind] = append(out[s.Kind], float64(s.End-s.Start-covered[i]))
	}
	return out
}
