package faas

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reclog"
	"repro/internal/simclock"
)

// TestDedupWindowMatchesMapOracle drives a seeded stream of stores and lookups
// through dedupStore/dedupLookup and through a plain map of Results with the
// window's rules — a key lapses strictly after its store instant plus the
// window, a lookup of a lapsed key forgets it, a re-store replaces — and
// every lookup must agree. The stream repeats instants, lands lookups exactly
// on and one nanosecond past a key's window edge, and sends some stores
// slightly back in time, as concurrent invokes ending out of order do.
// Outputs run from 0 B to 40 KiB, so some need a chunk of their own. After
// every store the arena must hold little beyond the records' own bytes. The
// record itself is pointer-free and at most 48 bytes, and under concurrent
// invokes every replay is its own key's output.
func TestDedupWindowMatchesMapOracle(t *testing.T) {
	t.Run("layout", testIdemRecordLayout)
	t.Run("concurrent", testDedupWindowConcurrentHits)
	for _, tc := range []struct {
		name string
		keys int
		step time.Duration // the largest forward step between operations
		seed int64
	}{
		{"small-alphabet", 8, 5 * time.Millisecond, 1},
		{"large-alphabet", 3000, 100 * time.Microsecond, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const window = 100 * time.Millisecond
			rng := rand.New(rand.NewSource(tc.seed))
			fn := &function{cfg: Config{DedupWindow: window}}
			type entry struct {
				res     Result
				expires time.Time
			}
			oracle := map[string]entry{}
			now := time.Unix(1_700_000_000, 0)
			size := func() int {
				switch r := rng.Intn(10); {
				case r < 5:
					return rng.Intn(100)
				case r < 8:
					return rng.Intn(2 << 10)
				default:
					return rng.Intn(40<<10 + 1)
				}
			}
			maxOut, maxRecs, onEdge, pastEdge := 0, 0, 0, 0
			for op := 0; op < 20_000; op++ {
				key := fmt.Sprintf("key-%d", rng.Intn(tc.keys))
				switch r := rng.Intn(100); {
				case r < 20: // the same instant again
				case r < 22: // a key's window edge, or just past it
					if e, ok := oracle[key]; ok {
						edge := e.expires.Add(time.Duration(rng.Intn(2)))
						if edge.After(now) {
							now = edge
						}
					}
				default:
					now = now.Add(time.Duration(rng.Intn(int(tc.step))))
				}
				if rng.Intn(2) == 0 {
					at := now
					if rng.Intn(4) == 0 {
						at = now.Add(-time.Duration(rng.Intn(int(time.Millisecond))))
					}
					out := make([]byte, size())
					rng.Read(out)
					res := Result{Output: out, Cold: rng.Intn(2) == 0, Latency: time.Duration(op), Billed: time.Duration(rng.Intn(1000)) * time.Millisecond}
					fn.dedupStore(key, res, at)
					oracle[key] = entry{res: res, expires: at.Add(window)}
					maxOut, maxRecs = max(maxOut, len(out)), max(maxRecs, fn.idem.recs.Len())
					checkWindowBytes(t, fn.idem)
					continue
				}
				got, hit := fn.dedupLookup(key, now)
				e, want := oracle[key]
				if want && now.Equal(e.expires) {
					onEdge++
				} else if want && now.Equal(e.expires.Add(1)) {
					pastEdge++
				}
				if want && now.After(e.expires) {
					delete(oracle, key)
					want = false
				}
				if hit != want {
					t.Fatalf("op %d: lookup %q %v after its expiry: hit=%v, oracle %v", op, key, now.Sub(e.expires), hit, want)
				}
				if !hit {
					continue
				}
				if !bytes.Equal(got.Output, e.res.Output) || cap(got.Output) != len(got.Output) ||
					got.Cold != e.res.Cold || got.Latency != e.res.Latency || got.Billed != e.res.Billed {
					t.Fatalf("op %d: lookup %q = {%d B (cap %d), cold %v, %v, %v}, oracle {%d B, cold %v, %v, %v}", op, key,
						len(got.Output), cap(got.Output), got.Cold, got.Latency, got.Billed,
						len(e.res.Output), e.res.Cold, e.res.Latency, e.res.Billed)
				}
			}
			t.Logf("largest output %d B, most records held %d; %d lookups on a window edge, %d just past one",
				maxOut, maxRecs, onEdge, pastEdge)
			if onEdge == 0 || pastEdge == 0 {
				t.Errorf("the stream looked up %d keys on their window edge and %d just past it, want some of each", onEdge, pastEdge)
			}
		})
	}
}

// checkWindowBytes holds a window to its invariants: every indexed key names a
// record the window holds and whose key bytes are the key. What the arena
// holds beyond the records' own bytes is the log's to bound
// (reclog.TestRecordLogMatchesSliceOracle).
func checkWindowBytes(t *testing.T, w *idemWindow) {
	t.Helper()
	first, next := w.recs.First(), w.recs.First()+uint64(w.recs.Len())
	for key, n := range w.index {
		if n < first || n >= next {
			t.Fatalf("key %q names record %d, outside the held %d..%d", key, n, first, next)
		}
		if kb := w.recs.Bytes(n)[:w.recs.At(n).klen]; string(kb) != key {
			t.Fatalf("key %q names record %d, whose key is %q", key, n, kb)
		}
	}
}

// testDedupWindowConcurrentHits: eight goroutines on a virtual clock invoke an
// echo function with overlapping idempotency keys, each from one payload
// buffer it rewrites between calls, and every reply — executed or replayed —
// is its own key's bytes: the window keeps a copy, not the caller's buffer.
func testDedupWindowConcurrentHits(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("echo", "t", func(ctx *Ctx, payload []byte) ([]byte, error) {
		ctx.Work(time.Duration(1+int(payload[len(payload)-1])%3) * time.Millisecond)
		return payload, nil
	}, Config{DedupWindow: 20 * time.Millisecond}))
	var hits atomic.Int64
	v.Run(func() {
		g := simclock.NewGroup(v)
		for w := 0; w < 8; w++ {
			g.Go(func() {
				buf := make([]byte, 0, 16)
				for i := 0; i < 300; i++ {
					key := fmt.Sprintf("key-%02d", (w*7+i*5)%24)
					buf = append(buf[:0], key...)
					res, err := p.InvokeForTraceIdem("t", "echo", buf, obs.TraceCtx{}, key)
					if err != nil {
						t.Errorf("worker %d, call %d: %v", w, i, err)
						return
					}
					if string(res.Output) != key {
						t.Errorf("worker %d, call %d: key %q answered %q (deduped %v)", w, i, key, res.Output, res.Deduped)
						return
					}
					if res.Deduped {
						hits.Add(1)
					}
				}
			})
		}
		g.Wait()
	})
	if hits.Load() == 0 {
		t.Error("no call was answered from the window")
	}
}

// testIdemRecordLayout: the window's record, as its log stores it with its
// span, is at most 48 bytes and holds nothing the collector has to follow.
func testIdemRecordLayout(t *testing.T) {
	recs, _ := reflect.TypeOf(reclog.Log[idemRec]{}).FieldByName("recs")
	items, _ := recs.Type.FieldByName("items")
	typ := items.Type.Elem()
	if typ.Size() > 48 {
		t.Errorf("idemRec is %d bytes as stored, want <= 48", typ.Size())
	}
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Bool, reflect.Int64, reflect.Uint32:
			case reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			default:
				t.Errorf("%s%s is a %s: the record must hold no pointer", prefix, f.Name, f.Type.Kind())
			}
		}
	}
	walk("idemRec slot.", typ)
}
