package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/faas"
)

// serve drives one request through ServeHTTP on the calling goroutine — a
// clock-tracked one, so no socket and no Outside: submit and poll neither
// sleep nor Join.
func serve(t *testing.T, g *Gateway, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer tok-a")
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	return w
}

func pollStatus(t *testing.T, g *Gateway, id string) (int, InvocationStatus, Envelope) {
	t.Helper()
	w := serve(t, g, "GET", "/v1/invocations/"+id, nil)
	var st InvocationStatus
	var env Envelope
	var err error
	if w.Code == http.StatusOK {
		err = json.Unmarshal(w.Body.Bytes(), &st)
	} else {
		err = json.Unmarshal(w.Body.Bytes(), &env)
	}
	if err != nil {
		t.Fatalf("poll %s: %d %q: %v", id, w.Code, w.Body, err)
	}
	return w.Code, st, env
}

// TestAsyncRecordsEvicted: the async table is bounded by count and by age.
// 70 000 submissions leave at most maxFinished records, the newest pollable
// and the oldest indistinguishable from an id that never existed; a finished
// record outlives its completion by invocationTTL on the platform clock and
// no longer.
func TestAsyncRecordsEvicted(t *testing.T) {
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	g := New(p, Config{Tokens: map[string]string{"tok-a": "alpha"}})
	v.Run(func() {
		spec, _ := json.Marshal(fastSpec("task"))
		if w := serve(t, g, "POST", "/v1/functions", spec); w.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", w.Code, w.Body)
		}
		submit := func() string {
			w := serve(t, g, "POST", "/v1/functions/task/invoke-async", []byte("x"))
			var out struct{ ID string }
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || w.Code != http.StatusAccepted {
				t.Fatalf("submit: %d %q: %v", w.Code, w.Body, err)
			}
			return out.ID
		}
		retained := func() (records, finished int) {
			g.async.mu.Lock()
			defer g.async.mu.Unlock()
			return len(g.async.pending) + len(g.async.index), g.async.done.Len()
		}

		// In batches, so the run holds 100 goroutines, not 70 000; each batch
		// finishes inside its 10 ms, the whole flood inside 7 s — well under
		// the TTL, so only the count cap evicts.
		const total, batch = 70_000, 100
		var first, last string
		for i := 0; i < total; i += batch {
			for j := 0; j < batch; j++ {
				last = submit()
				if first == "" {
					first = last
				}
			}
			v.Sleep(10 * time.Millisecond)
		}
		if records, finished := retained(); records != maxFinished || finished != maxFinished {
			t.Fatalf("after %d submissions: %d records, %d on the finished queue, want %d of each", total, records, finished, maxFinished)
		}
		if code, st, _ := pollStatus(t, g, last); code != http.StatusOK || st.Status != "succeeded" || string(st.Output) != "x" {
			t.Fatalf("newest id %s polls %d %+v, want succeeded", last, code, st)
		}
		oldCode, _, oldEnv := pollStatus(t, g, first)
		newCode, _, newEnv := pollStatus(t, g, "inv-999999")
		if oldCode != http.StatusNotFound || oldEnv.Error.Code != "no_invocation" ||
			newCode != oldCode || newEnv.Error.Code != oldEnv.Error.Code {
			t.Fatalf("evicted id polls %d %q, unknown id %d %q, want 404 no_invocation for both",
				oldCode, oldEnv.Error.Code, newCode, newEnv.Error.Code)
		}

		// Age: everything above is gone invocationTTL after it finished, with
		// no completion in between to trigger the sweep; a record finished
		// just under the TTL ago is still there.
		v.Sleep(invocationTTL - time.Second)
		young := submit()
		v.Sleep(time.Second + 10*time.Millisecond)
		if code, _, env := pollStatus(t, g, last); code != http.StatusNotFound || env.Error.Code != "no_invocation" {
			t.Fatalf("id finished more than the TTL ago polls %d %q, want 404 no_invocation", code, env.Error.Code)
		}
		if code, st, _ := pollStatus(t, g, young); code != http.StatusOK || st.Status != "succeeded" {
			t.Fatalf("id finished %v ago polls %d %+v, want succeeded", time.Second, code, st)
		}
		if records, finished := retained(); records != 1 || finished != 1 {
			t.Fatalf("after the TTL: %d records, %d on the finished queue, want the one young record", records, finished)
		}
		v.Sleep(invocationTTL)
		if code, _, _ := pollStatus(t, g, young); code != http.StatusNotFound {
			t.Fatalf("the young record outlived its TTL: poll %d", code)
		}
		if records, finished := retained(); records != 0 || finished != 0 || len(g.async.index) != 0 {
			t.Fatalf("emptied table holds %d records, %d finished, %d indexed", records, finished, len(g.async.index))
		}
	})
}

// asyncOracle is the table as it was an object per invocation: a map of
// records by wire id, the finished ones also on a queue in completion order
// that eviction trims from its old end.
type asyncOracle struct {
	invs map[string]*oracleInv
	done []*oracleInv
}

type oracleInv struct {
	id, tenant, function string
	finished             bool
	res                  faas.Result
	err                  error
	doneAt               time.Time
}

func (o *asyncOracle) evict(now time.Time) {
	for len(o.done) > 0 && (len(o.done) > maxFinished || now.Sub(o.done[0].doneAt) > invocationTTL) {
		delete(o.invs, o.done[0].id)
		o.done = o.done[1:]
	}
}

func (o *asyncOracle) finish(inv *oracleInv, res faas.Result, err error, now time.Time) {
	inv.finished, inv.res, inv.err, inv.doneAt = true, res, err, now
	o.done = append(o.done, inv)
	o.evict(now)
}

func (o *asyncOracle) poll(id, tenant string, now time.Time) (InvocationStatus, bool) {
	o.evict(now)
	inv := o.invs[id]
	if inv == nil || inv.tenant != tenant {
		return InvocationStatus{}, false
	}
	st := InvocationStatus{ID: id, Function: inv.function, Status: "pending"}
	if inv.finished {
		if inv.err != nil {
			st.Status = "failed"
			st.Error = &ErrorBody{Code: statusFor(inv.err).Code, Message: inv.err.Error()}
		} else {
			st.Status = "succeeded"
			st.Output = inv.res.Output
		}
		st.Cold = inv.res.Cold
		st.LatencyNs = inv.res.Latency.Nanoseconds()
		st.BilledNs = inv.res.Billed.Nanoseconds()
		st.Attempt = inv.res.Attempt
	}
	return st, true
}

// TestAsyncTableMatchesOracle drives the async table and asyncOracle with one
// seeded stream: submits from two tenants; finishes out of submission order,
// some failed with a wire-table error or an application one, some a little
// back in time as concurrent completions are; polls by own, foreign-tenant,
// evicted, never-issued and malformed ids; clock steps that land exactly on,
// and 1 ns past, the oldest record's invocationTTL; and floods that carry the
// table past maxFinished. Every poll must answer as the oracle does, down to
// the JSON bytes, and a poll of a finished success allocates nothing.
func TestAsyncTableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	now := time.Unix(1_700_000_000, 0)
	tbl := newAsyncTable(now)
	o := &asyncOracle{invs: map[string]*oracleInv{}}
	tenants := []string{"alpha", "beta"}
	functions := []string{"f", "resize", strings.Repeat("n", 300)}
	failures := []error{
		errors.New("handler: boom"),
		fmt.Errorf("%w: ran 30s", faas.ErrTimeout),
		fmt.Errorf("tenant beta: %w", faas.ErrTenantThrottled),
		errs.ErrNoCapacity,
	}
	var pending []*oracleInv
	submit := func() {
		tenant, fn := tenants[rng.Intn(2)], functions[rng.Intn(len(functions))]
		n := tbl.submit(tenant, fn)
		inv := &oracleInv{id: fmt.Sprintf("inv-%06d", n), tenant: tenant, function: fn}
		if got := string(formatInvID(nil, n)); got != inv.id {
			t.Fatalf("id %d formats to %q, want %q", n, got, inv.id)
		}
		o.invs[inv.id] = inv
		pending = append(pending, inv)
	}
	// finish ends a random pending invocation at at; a small one's output is
	// at most 16 B, so a flood of them stays small.
	finish := func(at time.Time, small bool) {
		i := rng.Intn(len(pending))
		inv := pending[i]
		pending = append(pending[:i], pending[i+1:]...)
		var res faas.Result
		var err error
		switch r := rng.Intn(10); {
		case r < 2:
			err = failures[rng.Intn(len(failures))]
		case small:
			res.Output = make([]byte, rng.Intn(17))
		case r < 3:
			res.Output = make([]byte, rng.Intn(40<<10))
		default:
			res.Output = make([]byte, rng.Intn(200))
		}
		rng.Read(res.Output)
		res.Cold, res.Attempt = rng.Intn(4) == 0, 1+rng.Intn(3)
		res.Latency, res.Billed = time.Duration(rng.Int63n(int64(time.Second))), time.Duration(rng.Intn(1000))*time.Millisecond
		n, _ := parseInvID(inv.id)
		tbl.finish(n, res, err, at)
		o.finish(inv, res, err, at)
	}
	var onEdge, pastEdge, foreign, evicted, flooded int
	poll := func(op int, id, tenant string) {
		got, gotOK := tbl.poll(id, tenant, now)
		want, wantOK := o.poll(id, tenant, now)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if gotOK != wantOK || !bytes.Equal(gj, wj) {
			t.Fatalf("op %d: poll %q by %s = %v %.200s, oracle %v %.200s", op, id, tenant, gotOK, gj, wantOK, wj)
		}
	}
	for op := 0; op < 30_000; op++ {
		switch r := rng.Intn(100); {
		case r < 28:
			submit()
		case r < 55:
			if len(pending) > 0 {
				at := now
				if rng.Intn(5) == 0 {
					at = now.Add(-time.Duration(rng.Intn(int(time.Millisecond))))
				}
				finish(at, false)
			}
		case r < 60: // the oldest record's TTL edge, or 1 ns past it
			if len(o.done) > 0 {
				edge := o.done[0].doneAt.Add(invocationTTL + time.Duration(rng.Intn(2)))
				if edge.After(now) {
					now = edge
				}
			}
		case r < 62 && flooded < 2: // a flood past the cap
			flooded++
			for i := 0; i < maxFinished+rng.Intn(100); i++ {
				submit()
				finish(now, true)
			}
		default:
			now = now.Add(time.Duration(rng.Int63n(int64(2 * time.Second))))
		}
		// One poll an op, of a random kind.
		switch k := rng.Intn(10); {
		case k < 4 && len(o.done) > 0:
			inv := o.done[rng.Intn(len(o.done))]
			if now.Sub(inv.doneAt) == invocationTTL {
				onEdge++
			} else if now.Sub(inv.doneAt) == invocationTTL+1 {
				pastEdge++
			}
			poll(op, inv.id, inv.tenant)
		case k < 5 && len(pending) > 0:
			inv := pending[rng.Intn(len(pending))]
			poll(op, inv.id, inv.tenant)
		case k < 6 && len(o.done) > 0:
			inv := o.done[rng.Intn(len(o.done))]
			foreign++
			poll(op, inv.id, tenants[1-slices.Index(tenants, inv.tenant)])
		case k < 8: // issued and maybe evicted, or never issued
			n := 1 + rng.Int63n(tbl.nextID+10)
			id := fmt.Sprintf("inv-%06d", n)
			if o.invs[id] == nil && n <= tbl.nextID {
				evicted++
			}
			poll(op, id, tenants[rng.Intn(2)])
		default:
			n := 1 + rng.Int63n(tbl.nextID+10)
			malformed := []string{
				fmt.Sprintf("inv-%07d", n), fmt.Sprintf("inv-+%05d", n), fmt.Sprintf("inv-%d", n%10),
				fmt.Sprintf("inv-%06d ", n), fmt.Sprintf("INV-%06d", n), fmt.Sprintf("inv-%06x", n), "inv-", "",
			}
			poll(op, malformed[rng.Intn(len(malformed))], tenants[rng.Intn(2)])
		}
		if len(tbl.pending) != len(pending) || len(tbl.index) != len(o.done) || tbl.done.Len() != len(o.done) {
			t.Fatalf("op %d: table holds %d pending and %d finished (%d indexed), oracle %d and %d",
				op, len(tbl.pending), tbl.done.Len(), len(tbl.index), len(pending), len(o.done))
		}
	}
	t.Logf("%d ids issued, %d finished records held, %d pending; polls on a TTL edge %d, just past one %d, by a foreign tenant %d, of an evicted id %d",
		tbl.nextID, tbl.done.Len(), len(pending), onEdge, pastEdge, foreign, evicted)
	if onEdge == 0 || pastEdge == 0 || foreign == 0 || evicted == 0 || flooded < 2 {
		t.Errorf("the stream polled %d records on their TTL edge, %d just past it, %d by a foreign tenant, %d evicted, and flooded %d times: want some of each, and two floods",
			onEdge, pastEdge, foreign, evicted, flooded)
	}

	n := tbl.submit("alpha", "f")
	tbl.finish(n, faas.Result{Output: []byte("out"), Attempt: 1}, nil, now)
	id := string(formatInvID(nil, n))
	if allocs := testing.AllocsPerRun(100, func() { tbl.poll(id, "alpha", now) }); allocs != 0 {
		t.Errorf("a poll of a finished success allocates %.0f times, want 0", allocs)
	}
}
