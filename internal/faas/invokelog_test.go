package faas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

var errSeeded = errors.New("seeded failure")

// seeded runs the work its payload names (8 bytes, nanoseconds) and fails
// when the payload's ninth byte is 1.
func seeded(ctx *Ctx, in []byte) ([]byte, error) {
	ctx.Work(time.Duration(binary.LittleEndian.Uint64(in)))
	if in[8] == 1 {
		return nil, errSeeded
	}
	return nil, nil
}

func seededPayload(work time.Duration, fail bool) []byte {
	b := make([]byte, 9)
	binary.LittleEndian.PutUint64(b, uint64(work))
	if fail {
		b[8] = 1
	}
	return b
}

// TestInvokeLogEqualReads is the invoke log's contract: every registry read
// equals what the direct writes it replaced would read. A seeded stream
// drives 3 tenants × 4 functions on a virtual clock (keep-alive gaps and
// cold starts, gaps past the SLO ring's 6 h reach, seeded work, failures,
// timeouts, and functions unregistered and registered again), and an oracle
// registry is fed by hand from each returned Result. At seeded points, and
// at the end, the two must agree on Snapshot, Prometheus text and the SLO
// engine's Snapshot, exemplars and burn rates included.
func TestInvokeLogEqualReads(t *testing.T) {
	const steps = 4000
	rng := rand.New(rand.NewSource(27))
	v := simclock.NewVirtual()
	defer v.Close()
	reg := obs.New(v)
	p := New(v, nil)
	p.SetObs(reg)
	// The oracle holds the same instruments under the same names and help,
	// registered by a platform that never runs anything.
	oracle := obs.New(v)
	New(v, nil).SetObs(oracle)
	var (
		warm, cold       = oracle.Counter("faas.invoke.warm"), oracle.Counter("faas.invoke.cold")
		timeout, failure = oracle.Counter("faas.invoke.timeout"), oracle.Counter("faas.invoke.failure")
		queueWait        = oracle.Histogram("faas.queue.wait")
		handlerLat       = oracle.Histogram("faas.handler.latency")
		invokeLat        = oracle.Histogram("faas.invoke.latency")
		invVec           = oracle.CounterVec("faas.tenant.invocations", "tenant", "function")
		failVec          = oracle.CounterVec("faas.tenant.failures", "tenant", "function")
		latVec           = oracle.HistogramVec("faas.tenant.latency", "tenant", "function")
	)

	type spec struct {
		tenant, name string
		cfg          Config
	}
	var fns []spec
	for i := 0; i < 12; i++ {
		s := spec{tenant: fmt.Sprintf("t%d", i/4), name: fmt.Sprintf("f%d", i%4), cfg: Config{
			WarmStart: time.Duration(1+rng.Intn(5)) * time.Millisecond,
			ColdStart: time.Duration(50+rng.Intn(300)) * time.Millisecond,
			KeepAlive: time.Duration(1+rng.Intn(10)) * time.Minute,
			Timeout:   time.Duration(100+rng.Intn(400)) * time.Millisecond,
		}}
		must(t, p.Register(s.name, s.tenant, seeded, s.cfg))
		// Register resolves a function's series and its tenant's SLO.
		invVec.With(s.tenant, s.name)
		failVec.With(s.tenant, s.name)
		latVec.With(s.tenant, s.name)
		oracle.SLO().Tenant(s.tenant)
		fns = append(fns, s)
	}

	var reads, unregisters, mostBetweenReads int
	var counts [3]int // timeouts, failures, cold starts
	sinceRead := make([]int, len(fns))
	compare := func(at int) bool {
		reads++
		for i, n := range sinceRead {
			mostBetweenReads = max(mostBetweenReads, n)
			sinceRead[i] = 0
		}
		// Each read path folds on its own: rotate which one goes first.
		var got, want [3]any
		for k := 0; k < 3; k++ {
			switch (at + k) % 3 {
			case 0:
				got[0], want[0] = reg.Snapshot(), oracle.Snapshot()
			case 1:
				var g, w bytes.Buffer
				reg.WritePrometheus(&g)
				oracle.WritePrometheus(&w)
				got[1], want[1] = g.String(), w.String()
			case 2:
				got[2], want[2] = reg.SLO().Snapshot(), oracle.SLO().Snapshot()
			}
		}
		for k, what := range []string{"Snapshot", "WritePrometheus", "SLO().Snapshot"} {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("step %d: folded %s reads\n%+v\ndirect reads\n%+v", at, what, got[k], want[k])
				return false
			}
		}
		return true
	}

	v.Run(func() {
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(1000); {
			case r < 5:
				v.Sleep(time.Duration(3+rng.Intn(5)) * time.Hour)
			case r < 60:
				v.Sleep(time.Duration(1+rng.Intn(15)) * time.Minute)
			default:
				v.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
			}
			k := rng.Intn(len(fns))
			if rng.Intn(2) == 0 {
				k = 0 // one hot function fills its log between reads
			}
			f := fns[k]
			if rng.Intn(200) == 0 {
				if err := p.UnregisterFor(f.tenant, f.name); err != nil {
					t.Error(err)
					return
				}
				if err := p.Register(f.name, f.tenant, seeded, f.cfg); err != nil {
					t.Error(err)
					return
				}
				unregisters++
			}
			work := time.Duration(1+rng.Intn(200)) * time.Millisecond
			if rng.Intn(20) == 0 {
				work = 600 * time.Millisecond // past every Timeout
			}
			res, err := p.InvokeFor(f.tenant, f.name, seededPayload(work, rng.Intn(20) == 0))
			if err != nil && !errors.Is(err, errSeeded) && !errors.Is(err, ErrTimeout) {
				t.Errorf("step %d: %v", i, err)
				return
			}
			sinceRead[k]++

			// The direct writes, from the Result alone.
			wait := f.cfg.WarmStart
			if res.Cold {
				wait = f.cfg.ColdStart
				cold.Inc()
				counts[2]++
			} else {
				warm.Inc()
			}
			queueWait.Observe(wait)
			handlerLat.Observe(res.Latency - wait)
			invokeLat.ObserveTrace(res.Latency, res.TraceID)
			invVec.With(f.tenant, f.name).Inc()
			latVec.With(f.tenant, f.name).ObserveTrace(res.Latency, res.TraceID)
			if err != nil {
				failure.Inc()
				failVec.With(f.tenant, f.name).Inc()
				counts[1]++
				if errors.Is(err, ErrTimeout) {
					timeout.Inc()
					counts[0]++
				}
			}
			oracle.SLO().Tenant(f.tenant).Record(v.Now(), res.Latency, err != nil)

			if rng.Intn(150) == 0 && !compare(i) {
				return
			}
		}
		compare(steps)
	})
	t.Logf("%d reads, %d unregisters, at most %d invokes of one function between reads; %d timeouts, %d failures, %d cold starts",
		reads, unregisters, mostBetweenReads, counts[0], counts[1], counts[2])
	if mostBetweenReads < invokeLogCap || unregisters == 0 || counts[0] == 0 || counts[1] == counts[0] || counts[2] <= len(fns) {
		t.Errorf("the stream missed a case it exists to cover")
	}
}

// TestInvokeLogFoldRace folds while invokes log: eight goroutines invoke one
// function with seeded failures, one reads the registry in a loop, and one
// unregisters and registers again a sibling function while invokes of it
// are in flight, so they complete on a function that is gone. At the end
// every invoke that reached a handler is counted once, in every counter,
// histogram and SLO window it feeds.
func TestInvokeLogFoldRace(t *testing.T) {
	reg := obs.New(simclock.Real{})
	p := New(simclock.Real{}, nil)
	p.SetObs(reg)
	cfg := Config{WarmStart: time.Nanosecond, ColdStart: time.Nanosecond, KeepAlive: time.Hour}
	must(t, p.Register("hot", "t", seeded, cfg))
	iters, rounds := 500, 40
	if testing.Short() {
		iters, rounds = 100, 10
	}

	var completed, failed atomic.Int64
	count := func(err error) {
		switch {
		case err == nil:
		case errors.Is(err, errSeeded):
			failed.Add(1)
		default:
			t.Error(err)
			return
		}
		completed.Add(1)
	}
	var writers, reader sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < iters; n++ {
				_, err := p.InvokeFor("t", "hot", seededPayload(0, rng.Intn(10) == 0))
				count(err)
			}
		}(w)
	}
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			reg.Snapshot()
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			reg.SLO().Snapshot()
		}
	}()
	writers.Add(1)
	go func() {
		defer writers.Done()
		for r := 0; r < rounds; r++ {
			entered, release := make(chan struct{}, 3), make(chan struct{})
			if err := p.Register("sib", "t", func(ctx *Ctx, in []byte) ([]byte, error) {
				entered <- struct{}{}
				<-release
				return seeded(ctx, in)
			}, cfg); err != nil {
				t.Error(err)
				return
			}
			var inFlight sync.WaitGroup
			for i := 0; i < 3; i++ {
				inFlight.Add(1)
				go func(fail bool) {
					defer inFlight.Done()
					_, err := p.InvokeFor("t", "sib", seededPayload(0, fail))
					count(err)
				}(i == r%3)
			}
			for i := 0; i < 3; i++ {
				<-entered
			}
			err := p.UnregisterFor("t", "sib")
			close(release)
			inFlight.Wait()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()

	n, nf := completed.Load(), failed.Load()
	if want := int64(8*iters + 3*rounds); n != want {
		t.Fatalf("%d invokes completed, want %d", n, want)
	}
	snap := reg.Snapshot()
	sums := map[string]int64{}
	for _, c := range snap.Counters {
		sums[c.Name] += c.Value
	}
	for _, h := range snap.Histograms {
		sums[h.Name] += h.Count
	}
	for name, want := range map[string]int64{
		"faas.tenant.invocations": n,
		"faas.tenant.failures":    nf,
		"faas.invoke.failure":     nf,
		"faas.queue.wait":         n,
		"faas.handler.latency":    n,
		"faas.invoke.latency":     n,
		"faas.tenant.latency":     n,
	} {
		if sums[name] != want {
			t.Errorf("%s = %d, want %d", name, sums[name], want)
		}
	}
	if got := sums["faas.invoke.warm"] + sums["faas.invoke.cold"]; got != n {
		t.Errorf("faas.invoke.warm + cold = %d, want %d", got, n)
	}
	if w := snap.SLOs[0].Windows[0]; w.Total != n || w.Errors != nf {
		t.Errorf("SLO 5m window: total %d, errors %d; want %d, %d", w.Total, w.Errors, n, nf)
	}
}

// TestEarlyExitsCarryIdentity: an invoke that ends before its handler runs
// still returns the request id, attempt and trace id it was given, so a
// caller can find the failed trace and tell the request apart.
func TestEarlyExitsCarryIdentity(t *testing.T) {
	block := func(ctx *Ctx, in []byte) ([]byte, error) {
		ctx.Work(time.Second)
		return nil, nil
	}
	boom := func(ctx *Ctx, in []byte) ([]byte, error) { return nil, errSeeded }
	cases := []struct {
		name    string
		handler Handler
		cfg     Config
		setup   func(p *Platform)
		// first runs before the measured invoke: nil, or a call whose effect
		// (a taken token, an open breaker, a busy instance) the invoke meets.
		first   func(p *Platform, v *simclock.Virtual)
		payload []byte
		want    error
	}{
		{name: "payload", handler: echo, cfg: Config{MaxPayload: 4}, payload: make([]byte, 8), want: ErrPayloadSize},
		{name: "shed", handler: echo,
			setup: func(p *Platform) {
				p.SetAdmission(AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxWait: time.Millisecond})
			},
			first: func(p *Platform, v *simclock.Virtual) { p.InvokeFor("t", "f", nil) },
			want:  ErrTenantThrottled},
		{name: "breaker", handler: boom, cfg: Config{BreakerThreshold: 1, BreakerCooldown: time.Hour},
			first: func(p *Platform, v *simclock.Virtual) { p.InvokeFor("t", "f", nil) },
			want:  ErrCircuitOpen},
		{name: "throttle", handler: block, cfg: Config{MaxConcurrency: 1},
			first: busy, want: ErrThrottled},
		{name: "placement", handler: block,
			setup: func(p *Platform) {
				p.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 1000, MemMB: 1024}, onlyOneMachine{}), 0)
			},
			first: busy, want: ErrThrottled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := simclock.NewVirtual()
			defer v.Close()
			p := New(v, nil)
			p.SetObs(obs.New(v))
			if c.setup != nil {
				c.setup(p)
			}
			must(t, p.Register("f", "t", c.handler, c.cfg))
			var res Result
			var err error
			v.Run(func() {
				if c.first != nil {
					c.first(p, v)
				}
				res, err = p.InvokeFor("t", "f", c.payload)
			})
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if res.RequestID == 0 || res.Attempt != 1 || res.TraceID == 0 {
				t.Fatalf("result %+v: want its request id, attempt 1 and trace id", res)
			}
		})
	}
}

// busy starts an invoke that holds the function's one instance for a
// second and returns once it is inside its handler.
func busy(p *Platform, v *simclock.Virtual) {
	v.Go(func() { p.InvokeFor("t", "f", nil) })
	v.Sleep(time.Millisecond)
}
