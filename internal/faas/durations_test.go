package faas

import (
	"slices"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestDurationWindowMatchesOracle: the growing ring reports exactly what a
// plain slice trimmed to its last durationWindow samples would, oldest first,
// at every n around a growth step (64, 512, 4096), at the cap and past the
// wrap — and it never holds more than the next step's worth of samples.
func TestDurationWindowMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 4095, 4096, 4097, 32767, 32768, 32769, 70000} {
		var fn function
		var oracle []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(i+1) * time.Microsecond
			fn.recordDurationLocked(d)
			oracle = append(oracle, d)
		}
		if len(oracle) > durationWindow {
			oracle = oracle[len(oracle)-durationWindow:]
		}
		if got := fn.durationsLocked(); !slices.Equal(got, oracle) {
			t.Errorf("n=%d: window has %d samples, oracle %d; first/last got %v want %v",
				n, len(got), len(oracle), ends(got), ends(oracle))
		}
		if got, limit := len(fn.durBuf), min(max(durInitial, n*durGrowth), durationWindow); n > 0 && got > limit {
			t.Errorf("n=%d: ring holds %d slots, want ≤ %d", n, got, limit)
		}
		if n == 0 && fn.durBuf != nil {
			t.Errorf("n=0: ring allocated before the first sample")
		}
	}
}

func ends(d []time.Duration) []time.Duration {
	if len(d) < 2 {
		return d
	}
	return []time.Duration{d[0], d[len(d)-1]}
}

// TestStatsDurationsAcrossGrowth drives the public path over the first growth
// step on the virtual clock, where a warm invoke's latency is exactly the warm
// dispatch plus its simulated work: Stats.Durations lists every invoke,
// oldest first.
func TestStatsDurationsAcrossGrowth(t *testing.T) {
	v := simclock.NewVirtual()
	v.Run(func() {
		p := New(v, nil)
		must(t, p.Register("f", "t", func(ctx *Ctx, payload []byte) ([]byte, error) {
			ctx.Work(time.Duration(payload[0]) * time.Millisecond)
			return nil, nil
		}, Config{WarmStart: time.Millisecond}))
		const n = durInitial + 6
		for i := 0; i < n; i++ {
			_, err := p.InvokeFor("t", "f", []byte{byte(i + 1)})
			must(t, err)
		}
		st, err := p.StatsFor("t", "f")
		must(t, err)
		if len(st.Durations) != n {
			t.Fatalf("Durations has %d samples, want %d", len(st.Durations), n)
		}
		for i, d := range st.Durations[1:] { // [0] also carries the cold start
			if want := time.Duration(1+i+2) * time.Millisecond; d != want {
				t.Fatalf("Durations[%d] = %v, want %v", i+1, d, want)
			}
		}
	})
}
