package faas

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestParallelWarmInvokes drives many goroutines through warm invocations on
// a shared set of functions. With admission off the platform-wide lock
// (atomic request IDs, RWMutex function table) the only serialization left
// is per-function, so this must hold up under -race: counters consistent,
// no invocation lost, no cold start after the pools are warmed.
func TestParallelWarmInvokes(t *testing.T) {
	p := New(simclock.Real{}, nil)
	const fns = 4
	for i := 0; i < fns; i++ {
		must(t, p.Register(fmt.Sprintf("f%d", i), "t", echo, Config{
			WarmStart:      time.Nanosecond,
			ColdStart:      time.Nanosecond,
			KeepAlive:      time.Hour,
			MaxConcurrency: 1 << 20,
		}))
	}
	iters := 500
	if testing.Short() {
		iters = 100
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", w%fns)
			for n := 0; n < iters; n++ {
				res, err := p.InvokeFor("t", name, []byte("x"))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if string(res.Output) != "x" {
					t.Errorf("worker %d: output = %q", w, res.Output)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var invocations int64
	for i := 0; i < fns; i++ {
		st, err := p.StatsFor("t", fmt.Sprintf("f%d", i))
		must(t, err)
		invocations += st.Invocations
		if st.Throttles != 0 {
			t.Errorf("f%d: %d throttles with unbounded concurrency", i, st.Throttles)
		}
	}
	if want := int64(workers * iters); invocations != want {
		t.Fatalf("invocations = %d, want %d", invocations, want)
	}
}
