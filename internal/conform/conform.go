// Package conform is a deterministic interleaving explorer — a small model
// checker — for execution-semantics conformance on the serverless platform.
//
// The platform promises at-least-once execution: failed attempts retry,
// clients re-send requests whose replies they lost, consumers see redelivered
// messages. Jangda et al. ("Formal Foundations of Serverless Computing",
// arXiv 1902.05870) show the resulting observable contract: a function is
// correct under these semantics exactly when every interleaving of crashes,
// retries and duplicate deliveries is *observationally equivalent* to the
// no-fault serial execution. This package makes that a checkable property.
//
// The explorer enumerates bounded fault schedules — crash-after-effect
// points inside handler attempts, lost-reply retries, duplicate request
// deliveries, and lost consumer acks forcing broker redelivery — and runs
// each on a fresh platform under its own virtual clock. Observational
// equivalence is judged on three axes:
//
//   - final state: jiffy namespaces, kvdb tables, blob buckets
//     (core.Platform.StateDigest);
//   - the multiset of acked pulsar messages per subscription;
//   - billing-visible invoke counts: billed faas:requests must equal the
//     schedule-predicted execution count (at-least-once platforms bill per
//     execution reaching the handler — crashed attempts bill, deduplicated
//     duplicates do not).
//
// A workload that holds on every explored schedule is conformant; one that
// diverges yields a minimal Witness — the exact schedule, which replays to
// the same digest — because schedules are enumerated in weight order.
package conform

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/obs"
	"repro/internal/pulsar"
)

// consumerDrain is the model downstream consumer of a sink workload: after
// the invocations it receives and acks everything on the sink subscription,
// losing the acks of the scripted delivery indexes in flight and then driving
// broker redelivery until the backlog drains — the at-least-once consumer
// loop, made deterministic.
type consumerDrain struct {
	env   *Env
	topic string
	cons  *pulsar.Consumer
	drops []int
}

func (d *consumerDrain) drain() error {
	dropAt := map[int]bool{}
	for _, idx := range d.drops {
		dropAt[idx] = true
	}
	delivered := 0
	for round := 0; round < 2*len(d.drops)+2; round++ {
		for {
			m, ok := d.cons.TryReceive()
			if !ok {
				break
			}
			if dropAt[delivered] {
				delete(dropAt, delivered)
				if err := d.env.P.Pulsar.DropAcks(d.topic, SinkSub, 1); err != nil {
					return err
				}
			}
			if err := d.cons.Ack(m); err != nil {
				return err
			}
			delivered++
		}
		backlog, err := d.env.P.Pulsar.Backlog(d.topic, SinkSub)
		if err != nil {
			return err
		}
		if backlog == 0 {
			return nil
		}
		if _, err := d.env.P.Pulsar.RedeliverUnacked(d.topic, SinkSub); err != nil {
			return err
		}
	}
	return fmt.Errorf("conform: sink backlog failed to drain")
}

// Options bounds the exploration.
type Options struct {
	// MaxSchedules caps how many distinct schedules run (weight-ordered, so
	// the cap keeps the shallowest). Default 300.
	MaxSchedules int
	// Parallelism is how many schedules run concurrently, each on its own
	// platform and virtual clock. Default 4.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 300
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return o
}

// Workload is one function-under-test plus the client behaviour driving it.
type Workload struct {
	Name string
	// Invocations is how many client requests the workload issues (default
	// 1). Request i carries Payload(i) and, when DedupKeyed, idempotency
	// key "req-<i>".
	Invocations int
	// Payload builds request i's payload (default "inv-<i>").
	Payload func(i int) []byte
	// Handler is the function body; all faultable effects must go through
	// the Env wrappers.
	Handler func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error)
	// Setup provisions extra resources beyond the standard fixture.
	Setup func(e *Env) error
	// DedupKeyed registers the function with a DedupWindow and drives every
	// request with a per-invocation idempotency key: the platform's opt-in
	// exactly-once-observable mode.
	DedupKeyed bool
	// SinkTopic, when set, is created with a durable subscription (SinkSub)
	// that a model consumer drains and acks after the invocations; ack-drop
	// faults are explored against it.
	SinkTopic string
	// DupOnly restricts exploration to duplicate deliveries (no crash
	// faults), at greater dup depth — for workloads whose only interesting
	// axis is redelivery.
	DupOnly bool
}

func (w Workload) withDefaults() Workload {
	if w.Invocations <= 0 {
		w.Invocations = 1
	}
	if w.Payload == nil {
		w.Payload = func(i int) []byte { return []byte(fmt.Sprintf("inv-%d", i)) }
	}
	return w
}

// Witness is a minimal divergent interleaving: the exact schedule, the
// digests on both sides, and a first-divergence diff. Re-running the schedule
// reproduces Digest exactly — the witness is a replayable counterexample, not
// a flake.
type Witness struct {
	Schedule       Schedule `json:"schedule"`
	BaselineDigest uint64   `json:"baselineDigest"`
	Digest         uint64   `json:"digest"`
	// Diff is a human-readable statement of the divergence: the first
	// differing state-digest lines, or the billing mismatch.
	Diff string `json:"diff"`
}

// Report is the outcome of exploring one workload.
type Report struct {
	Workload   string
	Conformant bool
	// Explored is how many fault schedules actually ran (excluding the
	// baseline).
	Explored int
	// BaselineDigest/BaselineExecs describe the no-fault serial run.
	BaselineDigest uint64
	BaselineExecs  int
	// EffectPoints is the per-execution crash alphabet size discovered on
	// the baseline (effect boundaries crossed by one handler execution).
	EffectPoints int
	// BillingOK reports that every explored schedule billed exactly its
	// predicted execution count.
	BillingOK bool
	// Witness is the minimal divergent interleaving (nil when conformant).
	Witness *Witness
	// ExploreDigest hashes every (schedule, outcome) pair in order: two
	// runs of the same exploration must produce identical values.
	ExploreDigest uint64
}

// outcome is one schedule's observable result plus driver-level failure.
type outcome struct {
	Digest     uint64
	DigestText string
	Execs      int
	Billed     int
	runErr     error
	// maxEffects is the largest boundary count any single execution
	// crossed (the baseline run uses it to size the crash alphabet).
	maxEffects int
}

// Explore runs the full bounded exploration for one workload.
func Explore(w Workload, opts Options) (Report, error) {
	w = w.withDefaults()
	opts = opts.withDefaults()

	base := runSchedule(w, Schedule{})
	if base.runErr != nil {
		return Report{}, fmt.Errorf("conform: baseline run failed: %w", base.runErr)
	}
	if base.Billed != base.Execs {
		return Report{}, fmt.Errorf("conform: baseline billed %d executions but ran %d", base.Billed, base.Execs)
	}

	scheds := enumerate(w.Invocations, base.maxEffects, w.SinkTopic != "", w.DupOnly, opts)
	results := make([]outcome, len(scheds))

	var wg sync.WaitGroup
	next := make(chan int)
	for p := 0; p < opts.Parallelism; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runSchedule(w, scheds[i])
			}
		}()
	}
	for i := range scheds {
		next <- i
	}
	close(next)
	wg.Wait()

	rep := Report{
		Workload:       w.Name,
		Conformant:     true,
		BaselineDigest: base.Digest,
		BaselineExecs:  base.Execs,
		EffectPoints:   base.maxEffects,
		BillingOK:      true,
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "baseline digest=%x execs=%d billed=%d\n", base.Digest, base.Execs, base.Billed)
	for i, res := range results {
		rep.Explored++
		fmt.Fprintf(h, "%s digest=%x execs=%d billed=%d\n", scheds[i], res.Digest, res.Execs, res.Billed)
		if res.runErr != nil {
			return Report{}, fmt.Errorf("conform: schedule %s failed to run: %w", scheds[i], res.runErr)
		}
		if res.Billed != predictedExecs(w, scheds[i]) {
			rep.BillingOK = false
		}
		diff, div := diverges(w, scheds[i], res, base)
		if div && rep.Witness == nil {
			rep.Conformant = false
			rep.Witness = &Witness{
				Schedule:       scheds[i],
				BaselineDigest: base.Digest,
				Digest:         res.Digest,
				Diff:           diff,
			}
		}
	}
	rep.ExploreDigest = h.Sum64()
	return rep, nil
}

// diverges judges one schedule's outcome against the baseline: state first,
// then billing-as-predicted.
func diverges(w Workload, s Schedule, res, base outcome) (string, bool) {
	if res.runErr != nil {
		return "run error: " + res.runErr.Error(), true
	}
	if res.Digest != base.Digest {
		return digestDiff(base.DigestText, res.DigestText), true
	}
	if want := predictedExecs(w, s); res.Billed != want {
		return fmt.Sprintf("billed %d executions, schedule predicts %d", res.Billed, want), true
	}
	return "", false
}

// predictedExecs is how many handler executions (and therefore billed
// requests) the schedule should produce. Every attempt of a plain workload
// executes, and every duplicate delivery re-executes. A dedup-keyed workload
// stops executing at its first success — the first LostReply attempt, or the
// final clean attempt — because later keyed attempts and duplicates are
// served from the dedup window.
func predictedExecs(w Workload, s Schedule) int {
	total := 0
	for i := 0; i < w.Invocations; i++ {
		p := s.plan(i)
		if w.DedupKeyed {
			e := len(p.Faults) + 1
			for j, f := range p.Faults {
				if f == LostReply {
					e = j + 1
					break
				}
			}
			total += e
		} else {
			total += len(p.Faults) + 1 + p.Dups
		}
	}
	return total
}

// digestDiff reports the first line where two canonical state digests
// disagree.
func digestDiff(base, got string) string {
	bl := strings.Split(base, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(bl) || i < len(gl); i++ {
		var b, g string
		if i < len(bl) {
			b = bl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if b != g {
			return fmt.Sprintf("state diverges at digest line %d: baseline %q, schedule %q", i+1, b, g)
		}
	}
	return "digest hash mismatch with identical text (unreachable)"
}

// runSchedule executes the workload under one fault schedule: fresh platform,
// fresh virtual clock, scripted crashes/retries/dups/ack-drops, then the
// pure observable reads.
func runSchedule(w Workload, s Schedule) (out outcome) {
	plat, v := core.NewVirtual(core.Options{
		Brokers:       1,
		Bookies:       3,
		JiffyNodes:    2,
		BlocksPerNode: 64,
		JiffyLatency:  jiffy.NoLatency,
		DisableObs:    true,
	})
	defer plat.Close()

	cr := chaos.NewCrasher()
	env := &Env{P: plat, Crasher: cr, Tenant: envTenant}

	execs := 0
	maxEffects := 0
	handler := func(ctx *faas.Ctx, payload []byte) (_ []byte, err error) {
		execs++
		defer func() {
			if n := cr.Crossings(); n > maxEffects {
				maxEffects = n
			}
		}()
		// RecoverCrash must be deferred before Begin: an entry crash
		// (armed at boundary 0) fires inside Begin itself.
		defer chaos.RecoverCrash(&err)
		cr.Begin()
		return w.Handler(env, ctx, payload)
	}

	cfg := faas.Config{Prewarm: 1}
	if w.DedupKeyed {
		cfg.DedupWindow = time.Hour
	}

	var runErr error
	v.Run(func() {
		if err := env.setup(w); err != nil {
			runErr = err
			return
		}
		if err := plat.FaaS.Register(envFunction, envTenant, handler, cfg); err != nil {
			runErr = err
			return
		}
		var sink *consumerDrain
		if w.SinkTopic != "" {
			cons, err := plat.Pulsar.Subscribe(w.SinkTopic, SinkSub, pulsar.Exclusive, pulsar.Earliest)
			if err != nil {
				runErr = err
				return
			}
			sink = &consumerDrain{env: env, topic: w.SinkTopic, cons: cons, drops: s.DropAcks}
		}
		for i := 0; i < w.Invocations; i++ {
			if err := driveInvocation(env, w, i, s.plan(i)); err != nil {
				runErr = fmt.Errorf("invocation %d: %w", i, err)
				return
			}
		}
		if sink != nil {
			if err := sink.drain(); err != nil {
				runErr = err
				return
			}
		}
	})
	if runErr != nil {
		out.runErr = runErr
		return out
	}

	text, digest := plat.StateDigest()
	out.DigestText = text
	out.Digest = digest
	out.Execs = execs
	out.Billed = int(plat.Meter.Units(envTenant, billing.ResInvocationReqs))
	out.maxEffects = maxEffects
	return out
}

// driveInvocation issues client request i with its scripted fault sequence:
// the retry loop's Decide hook arms the crasher for the next attempt (or
// disarms it for a clean/lost-reply attempt) at every attempt boundary, then
// the duplicate deliveries re-invoke cleanly.
func driveInvocation(env *Env, w Workload, i int, plan InvPlan) error {
	cr := env.Crasher
	p := env.P.FaaS
	payload := w.Payload(i)
	key := "" // unkeyed: the dedup window, if any, is not consulted
	if w.DedupKeyed {
		key = fmt.Sprintf("req-%d", i)
	}
	faults := plan.Faults

	if len(faults) > 0 && faults[0] >= 0 {
		cr.Arm(faults[0])
	} else {
		cr.Disarm()
	}
	pol := faas.RetryPolicy{
		MaxAttempts: len(faults) + 1,
		Base:        time.Millisecond,
		Jitter:      -1,
		Decide: func(attempt int, res faas.Result, err error) bool {
			if attempt > len(faults) {
				return false
			}
			if attempt < len(faults) && faults[attempt] >= 0 {
				cr.Arm(faults[attempt])
			} else {
				cr.Disarm()
			}
			return true
		},
	}
	_, err := p.InvokeWithRetry(envTenant, envFunction, key, payload, obs.TraceCtx{}, pol)
	cr.Disarm()
	if err != nil {
		return fmt.Errorf("final attempt failed: %w", err)
	}
	for d := 0; d < plan.Dups; d++ {
		if _, err := p.InvokeForTraceIdem(envTenant, envFunction, payload, obs.TraceCtx{}, key); err != nil {
			return fmt.Errorf("duplicate delivery %d failed: %w", d, err)
		}
	}
	return nil
}
