package gateway

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/faas"
	"repro/internal/reclog"
)

// A finished async record is kept for its submitter to poll, not for ever:
// it is evicted, oldest completion first, once it has been finished for
// invocationTTL on the platform clock or once more than maxFinished are
// retained. An evicted id polls exactly like an unknown one (404
// no_invocation).
const (
	invocationTTL = 10 * time.Minute
	maxFinished   = 1 << 16
)

// asyncTable is the gateway's async invocations. A submitted one is pending:
// an entry naming its tenant and function, bounded by what the platform
// admits and by Config.Timeout, since every one finishes. A finished one is a
// record in a log, in completion order, with its tenant, function and output
// or error message copied into the log's arena: it pins neither the request
// body its output may alias nor the request line its function name is cut
// from.
type asyncTable struct {
	mu      sync.Mutex
	base    time.Time // doneAt counts from here
	nextID  int64
	pending map[int64]pendingInv
	index   map[int64]uint64 // finished id → record number in done
	done    reclog.Log[asyncRec]
}

// pendingInv is a submitted invocation that has not finished.
type pendingInv struct{ tenant, function string }

// asyncRec is a finished invocation. Its span is tenant ‖ function ‖ the
// output (a success) or the error's message (a failure). It holds no pointer.
type asyncRec struct {
	id          int64
	doneAt      int64 // nanoseconds after the table's base instant
	lat, billed int64
	tlen, flen  uint32
	attempt     int32
	cold        bool
	code        uint8 // codeSucceeded, codeInternal, or codeWire+ the error's wireTable row
}

const (
	codeSucceeded = iota
	codeInternal  // a failure no wireTable row matches
	codeWire
)

func newAsyncTable(now time.Time) asyncTable {
	return asyncTable{base: now, pending: map[int64]pendingInv{}, index: map[int64]uint64{}}
}

// submit numbers a new pending invocation.
func (t *asyncTable) submit(tenant, function string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.pending[t.nextID] = pendingInv{tenant, function}
	return t.nextID
}

// finish turns pending invocation id into a finished record at now.
func (t *asyncTable) finish(id int64, res faas.Result, err error, now time.Time) {
	rec := asyncRec{
		id: id, doneAt: int64(now.Sub(t.base)), lat: int64(res.Latency), billed: int64(res.Billed),
		attempt: int32(res.Attempt), cold: res.Cold, code: codeSucceeded,
	}
	tail, msg := res.Output, ""
	if err != nil {
		rec.code, tail, msg = codeInternal, nil, err.Error()
		if i := wireIndex(err); i >= 0 {
			rec.code = uint8(codeWire + i)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pending[id]
	delete(t.pending, id)
	rec.tlen, rec.flen = uint32(len(p.tenant)), uint32(len(p.function))
	num, b := t.done.Push(rec, len(p.tenant)+len(p.function)+len(tail)+len(msg))
	n := copy(b, p.tenant)
	n += copy(b[n:], p.function)
	n += copy(b[n:], tail)
	copy(b[n:], msg)
	t.index[id] = num
	t.evictLocked(now)
}

// evictLocked drops finished records from the old end of the log while there
// are more than maxFinished or the oldest has outlived invocationTTL.
// Completion times only grow along the log, so the expired are always at its
// head. Caller holds t.mu.
func (t *asyncTable) evictLocked(now time.Time) {
	at := int64(now.Sub(t.base))
	for t.done.Len() > 0 {
		r := t.done.At(t.done.First())
		if t.done.Len() <= maxFinished && at-r.doneAt <= int64(invocationTTL) {
			return
		}
		delete(t.index, r.id)
		t.done.Pop()
	}
}

// poll answers a poll of wire id by tenant at now, after evicting what has
// lapsed by then. An id that is unknown, evicted, another tenant's, or not
// exactly as formatInvID writes it reads as not found. A finished record's
// output and error message are the arena's bytes, which are never written
// again: they stay valid after the lock is released and the record evicted.
func (t *asyncTable) poll(id, tenant string, now time.Time) (InvocationStatus, bool) {
	n, ok := parseInvID(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked(now) // a record past its TTL is gone even if nothing finished since
	if !ok {
		return InvocationStatus{}, false
	}
	if p, ok := t.pending[n]; ok {
		if p.tenant != tenant {
			return InvocationStatus{}, false
		}
		return InvocationStatus{ID: id, Function: p.function, Status: "pending"}, true
	}
	num, ok := t.index[n]
	if !ok {
		return InvocationStatus{}, false
	}
	r, b := t.done.At(num), t.done.Bytes(num)
	if string(b[:r.tlen]) != tenant {
		return InvocationStatus{}, false
	}
	fn, tail := b[r.tlen:r.tlen+r.flen], b[r.tlen+r.flen:]
	st := InvocationStatus{
		ID: id, Function: arenaString(fn), Status: "succeeded",
		Cold: r.cold, LatencyNs: r.lat, BilledNs: r.billed, Attempt: int(r.attempt),
	}
	switch r.code {
	case codeSucceeded:
		if len(tail) > 0 {
			st.Output = tail
		}
	case codeInternal:
		st.Status, st.Error = "failed", &ErrorBody{Code: "internal", Message: arenaString(tail)}
	default:
		st.Status, st.Error = "failed", &ErrorBody{Code: wireTable[r.code-codeWire].Code, Message: arenaString(tail)}
	}
	return st, true
}

// arenaString is b as a string without a copy. Only for arena bytes, which
// are never written again once their record is pushed.
func arenaString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// formatInvID appends the wire form of async invocation id: "inv-" and the
// decimal id, zero-padded to six digits.
func formatInvID(b []byte, id int64) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], id, 10)
	b = append(b, "inv-"...)
	for i := len(digits); i < 6; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// parseInvID is formatInvID's inverse on positive ids, without allocating:
// any string formatInvID does not write for the id it reads — a sign, a
// padding zero too many, too few digits — does not parse, so no two wire ids
// name one invocation.
func parseInvID(s string) (int64, bool) {
	digits, ok := strings.CutPrefix(s, "inv-")
	if !ok || len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return 0, false
	}
	var id int64
	for i := 0; i < len(digits); i++ {
		d := int64(digits[i]) - '0'
		if d < 0 || d > 9 || id > (math.MaxInt64-d)/10 {
			return 0, false
		}
		id = id*10 + d
	}
	return id, id > 0
}
