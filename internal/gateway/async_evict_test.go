package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
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
			g.mu.Lock()
			defer g.mu.Unlock()
			return len(g.invs), g.doneCount
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
		if records, finished := retained(); records != 0 || finished != 0 || g.doneHead != nil || g.doneTail != nil {
			t.Fatalf("emptied table holds %d records, %d finished, head %v tail %v", records, finished, g.doneHead, g.doneTail)
		}
	})
}
