package faas

import (
	"slices"
	"time"

	"repro/internal/obs"
)

// An invoke writes once (DESIGN.md §5): a completed invoke appends one
// invokeRecord to its function's invoke log, inside the release section that
// already holds fn.mu, and touches no instrument. A fold replays the records
// in completion order into what the invoke path used to feed directly:
//
//   - faas.invoke.{warm,cold,timeout,failure}, one Add per counter per fold;
//   - faas.queue.wait, faas.handler.latency, and faas.invoke.latency with its
//     exemplar;
//   - the function's faas.tenant.{invocations,failures,latency} series, the
//     latency series with its exemplar;
//   - the tenant's SLO cells, each record in the epoch of its own end.
//
// A fold runs before every registry read (SetObs registers foldInvokeLogs as
// the registry's OnRead hook), when a log fills, when a function is
// unregistered, and when an invoke of an unregistered function completes. So
// every registry read equals what the direct writes would have read, while a
// platform whose metrics nobody reads — sebs builds one per call — never
// buys the histogram blocks, counter shards and SLO rings a function's first
// invoke used to.

// invokeRecord is one completed invoke: 40 bytes, no pointers.
type invokeRecord struct {
	end     int64         // completion instant, UnixNano: the SLO epoch
	wait    time.Duration // queue wait, start to handler start
	run     time.Duration // handler latency, handler start to end
	traceID int64         // the invoke span's trace, the latencies' exemplar
	seq     uint32        // platform-wide completion order, wrapping
	cold    bool
	failed  bool
	timeout bool
}

// The log is sized by use: nil until the first invoke, then
// invokeLogFirst records, doubled each time it fills; from invokeLogCap
// records on, every invoke that logs one runs a fold before it returns. So
// the log holds 64 records, plus at most one per invoke that completes while
// a fold is on its way, and is reused once drained. 64 is a measured size,
// not a knob: a function run a few times between reads, as every function of
// a SeBS call's platform is, never fills it, and a hot one folds once per 64
// invokes, every growth step behind it within its first 33.
const (
	invokeLogFirst = 4
	invokeLogCap   = 64
)

// loggedInvoke is a record in a fold's merge buffer, with its function.
type loggedInvoke struct {
	invokeRecord
	fn *function
}

// logLocked appends r to the log and reports whether the caller must run a
// fold once it has released fn.mu: the log is full, or the function is
// unregistered. Called with fn.mu held.
func (fn *function) logLocked(r invokeRecord) bool {
	p := fn.platform
	if n := len(fn.log); n == cap(fn.log) {
		grown := make([]invokeRecord, n, max(invokeLogFirst, 2*n))
		copy(grown, fn.log)
		fn.log = grown
	}
	if !fn.logged {
		fn.logged = true
		p.logMu.Lock()
		p.logged = append(p.logged, fn)
		p.logMu.Unlock()
	}
	r.seq = p.logSeq.Add(1)
	fn.log = append(fn.log, r)
	return len(fn.log) >= invokeLogCap || fn.gone
}

// foldInvokeLogs drains every function's invoke log, merges the records into
// completion order and replays them. Concurrent invokes keep logging while it
// runs; what they log after their function was drained waits for the next
// fold. It holds no registry lock and at most one fn.mu at a time.
func (p *platform) foldInvokeLogs() {
	p.foldMu.Lock()
	defer p.foldMu.Unlock()
	p.logMu.Lock()
	fns := p.logged
	p.logged = p.foldFns[:0]
	p.logMu.Unlock()

	var t foldTally
	recs := p.foldBuf[:0]
	for _, fn := range fns {
		fn.mu.Lock()
		t.count(fn)
		for _, r := range fn.log {
			recs = append(recs, loggedInvoke{r, fn})
		}
		fn.log = fn.log[:0]
		fn.logged = false
		fn.mu.Unlock()
	}
	if len(fns) > 1 { // one log is in completion order already
		slices.SortFunc(recs, func(a, b loggedInvoke) int { return int(int32(a.seq - b.seq)) })
	}
	for i := range recs {
		p.observe(recs[i].fn, &recs[i].invokeRecord)
	}
	t.flush(p)

	// Keep the buffers, not the functions: an unregistered one must go.
	clear(fns)
	clear(recs)
	p.foldFns, p.foldBuf = fns[:0], recs[:0]
}

// observe replays one record into the histograms and the tenant's SLO cells.
func (p *platform) observe(fn *function, r *invokeRecord) {
	lat := r.wait + r.run
	p.obsQueueWait.Observe(r.wait)
	p.obsHandlerLat.Observe(r.run)
	p.obsInvokeLat.ObserveTrace(lat, r.traceID)
	fn.lblLat.ObserveTrace(lat, r.traceID)
	fn.slo.Record(time.Unix(0, r.end), lat, r.failed)
}

// foldTally sums a fold's platform-wide counts, so that each counter gets
// one Add per fold.
type foldTally struct{ warm, cold, timeouts, failures int64 }

// count tallies fn's logged records and adds them to fn's own series.
// Called with fn.mu held.
func (t *foldTally) count(fn *function) {
	var failed int64
	for i := range fn.log {
		r := &fn.log[i]
		if r.cold {
			t.cold++
		} else {
			t.warm++
		}
		if r.timeout {
			t.timeouts++
		}
		if r.failed {
			failed++
		}
	}
	t.failures += failed
	add(fn.lblInv, int64(len(fn.log)))
	add(fn.lblFail, failed)
}

// flush adds the tally to the platform's counters.
func (t *foldTally) flush(p *platform) {
	add(p.obsWarm, t.warm)
	add(p.obsCold, t.cold)
	add(p.obsTimeout, t.timeouts)
	add(p.obsFailure, t.failures)
}

// add adds n to c unless n is 0: a counter's first Add buys its shards, and
// one that has counted nothing should not.
func add(c *obs.Counter, n int64) {
	if n != 0 {
		c.Add(n)
	}
}
