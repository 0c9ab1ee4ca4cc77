package faas

import (
	"time"

	"repro/internal/reclog"
)

// idemRec is one stored success: what a dedup hit replays (the handler's
// output, whether it paid a cold start, its latency and billed duration) and
// when it lapses. Its span in the window's log is the key, then the output.
// It holds no pointer, so a window's records are one block the collector
// never scans.
type idemRec struct {
	expires     int64 // nanoseconds after the window's base instant
	lat, billed int64
	klen        uint32
	cold        bool
}

// idemWindow is a function's dedup window: the successful keyed invokes of
// the last DedupWindow, oldest first. index maps a key to the number of its
// newest record (it holds the caller's key string, uncopied); the log copies
// key and output into its arena, so a cached output pins neither the request
// body nor the handler's buffer, and the arena goes as the records lapse.
type idemWindow struct {
	base  time.Time // expiries count from here
	recs  reclog.Log[idemRec]
	index map[string]uint64
}

// since is now as an offset from the window's base. Sub keeps a monotonic
// reading when both instants carry one, as time.Time's own comparisons do.
func (w *idemWindow) since(now time.Time) int64 { return int64(now.Sub(w.base)) }

// lookup returns the record for key if it has not lapsed by now; a lapsed
// key is forgotten. The output is the arena's copy with its capacity clipped,
// so an append by the caller cannot reach a neighbour; an empty one is nil.
func (w *idemWindow) lookup(key string, now time.Time) (Result, bool) {
	n, ok := w.index[key]
	if !ok {
		return Result{}, false
	}
	r := w.recs.At(n)
	if w.since(now) > r.expires {
		delete(w.index, key)
		return Result{}, false
	}
	res := Result{Cold: r.cold, Latency: time.Duration(r.lat), Billed: time.Duration(r.billed)}
	if out := w.recs.Bytes(n)[r.klen:]; len(out) > 0 {
		res.Output = out
	}
	return res, true
}

// store drops the records that have lapsed by now, then appends key's, which
// lapses window after now.
func (w *idemWindow) store(key string, res Result, now time.Time, window time.Duration) {
	at := w.since(now)
	for w.recs.Len() > 0 && at > w.recs.At(w.recs.First()).expires {
		w.popRec()
	}
	num, b := w.recs.Push(idemRec{
		expires: at + int64(window),
		lat:     int64(res.Latency),
		billed:  int64(res.Billed),
		klen:    uint32(len(key)),
		cold:    res.Cold,
	}, len(key)+len(res.Output))
	copy(b[copy(b, key):], res.Output)
	w.index[key] = num
}

// popRec drops the oldest record; its key leaves the index if the index
// still names it.
func (w *idemWindow) popRec() {
	num := w.recs.First()
	kb := w.recs.Bytes(num)[:w.recs.At(num).klen]
	if n, ok := w.index[string(kb)]; ok && n == num {
		delete(w.index, string(kb))
	}
	w.recs.Pop()
}
