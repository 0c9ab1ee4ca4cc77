// Package orchestrate implements the FaaS orchestration framework of §4.2:
// composition of serverless functions into state machines (sequences,
// parallel branches, choices, maps, waits) in the style of AWS Step
// Functions / IBM Composer.
//
// The design enforces the three properties Lopez et al. require of such
// frameworks (§4.2):
//
//  1. Functions are black boxes: a Task references a function only by name;
//     composition neither inspects nor modifies it.
//  2. A composition is itself a function: Engine.RegisterComposition makes a
//     state machine invocable by name from other compositions (and from
//     Engine.Execute), nestable to any depth.
//  3. No double billing: the engine meters nothing itself. Running a
//     composition bills exactly the basic function invocations it performs —
//     verified by experiment E7.
package orchestrate

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Errors returned by the engine.
var (
	ErrUnknownTarget = errors.New("orchestrate: task target is neither a function nor a composition")
	ErrNoChoice      = errors.New("orchestrate: no choice branch matched and no default given")
	ErrBadInput      = errors.New("orchestrate: input does not match state requirements")
	ErrFailed        = errors.New("orchestrate: execution reached a Fail state")
)

// State is one node of a state machine. States are built with the
// constructors below and interpreted by Engine.Execute.
type State interface {
	run(e *Engine, ec *execCtx, input []byte) ([]byte, error)
}

// RetryPolicy controls task re-execution on error.
type RetryPolicy struct {
	MaxAttempts int           // total attempts (≥1); 0 means 1
	Interval    time.Duration // delay before first retry
	Backoff     float64       // multiplier per retry; 0 means 2.0
}

func (r RetryPolicy) attempts() int {
	if r.MaxAttempts < 1 {
		return 1
	}
	return r.MaxAttempts
}

func (r RetryPolicy) backoff() float64 {
	if r.Backoff <= 0 {
		return 2.0
	}
	return r.Backoff
}

// --- state constructors ---

type taskState struct {
	target string
	retry  RetryPolicy
	catch  State
}

// Task invokes the named target — a registered platform function or a
// registered composition (property 2) — passing the state input as payload.
func Task(target string) State { return taskState{target: target} }

// TaskRetry is Task with a retry policy.
func TaskRetry(target string, retry RetryPolicy) State {
	return taskState{target: target, retry: retry}
}

// TaskCatch is Task with a retry policy and an error fallback state that
// receives the original input when all attempts fail.
func TaskCatch(target string, retry RetryPolicy, catch State) State {
	return taskState{target: target, retry: retry, catch: catch}
}

type chainState []State

// Chain runs states sequentially, piping each output into the next input.
func Chain(states ...State) State { return chainState(states) }

type parallelState []State

// Parallel runs branches concurrently on the same input; its output is the
// JSON array of branch outputs, in branch order.
func Parallel(branches ...State) State { return parallelState(branches) }

// ChoiceBranch pairs a predicate over the input with the state to run.
type ChoiceBranch struct {
	When func(input []byte) bool
	Then State
}

type choiceState struct {
	branches []ChoiceBranch
	fallback State
}

// Choice runs the first branch whose predicate matches; otherwise the
// default (which may be nil, making an unmatched input an error).
func Choice(branches []ChoiceBranch, def State) State {
	return choiceState{branches: branches, fallback: def}
}

type mapState struct {
	iterator State
	maxConc  int
}

// Map applies iterator to every element of the JSON-array input, with at
// most maxConc concurrent iterations (0 = unlimited). Output is the JSON
// array of per-element outputs in input order.
func Map(iterator State, maxConc int) State { return mapState{iterator: iterator, maxConc: maxConc} }

type waitState time.Duration

// Wait pauses the execution for d (on the platform clock) and passes its
// input through.
func Wait(d time.Duration) State { return waitState(d) }

type passState struct {
	transform func([]byte) ([]byte, error)
}

// Pass transforms the input inline (pure glue, no function invocation; bills
// nothing). A nil transform is the identity.
func Pass(transform func([]byte) ([]byte, error)) State { return passState{transform} }

type failState string

// Fail aborts the execution with the given reason.
func Fail(reason string) State { return failState(reason) }

// --- engine ---

// Event records one step of an execution trace.
type Event struct {
	At     time.Time
	Kind   string // "task", "retry", "choice", "wait", ...
	Detail string
}

// Trace is the observable history of one execution.
type Trace struct {
	mu     sync.Mutex
	Events []Event
}

func (t *Trace) add(at time.Time, kind, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Events = append(t.Events, Event{At: at, Kind: kind, Detail: detail})
	t.mu.Unlock()
}

type execCtx struct {
	tenant string // whose functions Task steps invoke
	trace  *Trace
	depth  int
	span   obs.SpanRef // current parent span; inert when tracing is off
}

// childCtx opens a child span named prefix+name under the execution's
// current span and returns a derived context carrying it. With tracing off
// (inert span, or the tracer's retention buffer full) both returns are no-ops /
// the receiver itself, and the name is never materialized — hot paths pay no
// concat allocation.
func (ec *execCtx) childCtx(e *Engine, prefix, name string) (obs.SpanRef, *execCtx) {
	if !ec.span.Active() {
		return obs.SpanRef{}, ec
	}
	if prefix != "" {
		name = prefix + name
	}
	sp := e.obs.Tracer().Start(ec.span.Ctx(), name)
	if !sp.Active() {
		return sp, ec
	}
	child := *ec
	child.span = sp
	return sp, &child
}

// endSpan finishes sp with attrs; a non-nil err is appended as the "error"
// attribute and flags the span (and so its trace) failed.
func endSpan(sp obs.SpanRef, err error, attrs ...obs.Attr) {
	if !sp.Active() {
		return
	}
	if err != nil {
		attrs = append(attrs, obs.Attr{Key: "error", Value: err.Error()})
	}
	sp.EndAttrs(err != nil, attrs...)
}

// Engine interprets state machines against a FaaS platform.
type Engine struct {
	platform *faas.Platform

	mu           sync.Mutex
	compositions map[string]State

	// Pre-resolved observability handles; nil (no-ops) until SetObs.
	obs      *obs.Registry
	obsExecs *obs.Counter
	obsSteps *obs.Counter
}

// NewEngine creates an engine bound to a platform.
func NewEngine(p *faas.Platform) *Engine {
	return &Engine{platform: p, compositions: map[string]State{}}
}

// SetObs attaches observability instruments. Every Execute then produces one
// trace: a root span with one child span per step.
func (e *Engine) SetObs(r *obs.Registry) {
	e.obs = r
	e.obsExecs = r.Counter("orchestrate.executions")
	e.obsSteps = r.Counter("orchestrate.steps")
}

// RegisterComposition names a state machine so that Task(name) can invoke it
// (the "composition is also a function" property). It returns an error if a
// composition with that name exists.
func (e *Engine) RegisterComposition(name string, sm State) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.compositions[name]; ok {
		return fmt.Errorf("orchestrate: composition %q already registered", name)
	}
	e.compositions[name] = sm
	return nil
}

// Execute runs a state machine to completion on behalf of tenant — every Task
// step invokes that tenant's function — and returns its output. With
// observability attached, the execution forms one trace: a root span plus a
// child span per step.
func (e *Engine) Execute(tenant string, sm State, input []byte) ([]byte, error) {
	e.obsExecs.Inc()
	root := e.obs.Tracer().Start(obs.TraceCtx{}, "orchestrate.execution")
	out, err := sm.run(e, &execCtx{tenant: tenant, span: root}, input)
	endSpan(root, err)
	return out, err
}

// ExecuteTraced runs a state machine, also returning its execution trace.
func (e *Engine) ExecuteTraced(tenant string, sm State, input []byte) ([]byte, *Trace, error) {
	e.obsExecs.Inc()
	tr := &Trace{}
	root := e.obs.Tracer().Start(obs.TraceCtx{}, "orchestrate.execution")
	out, err := sm.run(e, &execCtx{tenant: tenant, trace: tr, span: root}, input)
	endSpan(root, err)
	return out, tr, err
}

// --- interpreters ---

func (s taskState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	clock := e.platform.Clock()
	e.mu.Lock()
	comp, isComp := e.compositions[s.target]
	e.mu.Unlock()

	e.obsSteps.Inc()
	sp, ec := ec.childCtx(e, "task:", s.target)
	var attrs []obs.Attr // retry/catch annotations, attached when the span ends
	var out []byte
	var err, spanErr error
	defer func() { endSpan(sp, spanErr, attrs...) }()
	interval := s.retry.Interval
	for attempt := 1; attempt <= s.retry.attempts(); attempt++ {
		if attempt > 1 {
			ec.trace.add(clock.Now(), "retry", fmt.Sprintf("%s attempt %d", s.target, attempt))
			if sp.Active() {
				attrs = append(attrs, obs.Attr{Key: "retry", Value: fmt.Sprintf("attempt %d", attempt)})
			}
			clock.Sleep(interval)
			interval = time.Duration(float64(interval) * s.retry.backoff())
		}
		ec.trace.add(clock.Now(), "task", s.target)
		if isComp {
			out, err = comp.run(e, ec, input)
		} else {
			// The step span's context rides into the platform, so the
			// invocation (queue, handler, and anything the handler touches)
			// joins the execution's trace instead of rooting its own.
			var res faas.Result
			res, err = e.platform.InvokeForTraceIdem(ec.tenant, s.target, input, sp.Ctx(), "")
			out = res.Output
			if err != nil && errors.Is(err, faas.ErrNoFunction) {
				return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, s.target)
			}
		}
		if err == nil {
			return out, nil
		}
	}
	if s.catch != nil {
		ec.trace.add(clock.Now(), "catch", s.target)
		if sp.Active() {
			attrs = append(attrs, obs.Attr{Key: "catch", Value: s.target})
		}
		return s.catch.run(e, ec, input)
	}
	spanErr = err
	return nil, err
}

func (s chainState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	cur := input
	for _, st := range s {
		out, err := st.run(e, ec, cur)
		if err != nil {
			return nil, err
		}
		cur = out
	}
	return cur, nil
}

func (s parallelState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	clock := e.platform.Clock()
	ec.trace.add(clock.Now(), "parallel", fmt.Sprintf("%d branches", len(s)))
	sp, ec := ec.childCtx(e, "", "parallel")
	if sp.Active() {
		defer sp.EndAttrs(false, obs.Attr{Key: "branches", Value: fmt.Sprint(len(s))})
	}
	outs := make([]json.RawMessage, len(s))
	errs := make([]error, len(s))
	wg := simclock.NewGroup(clock)
	for i, br := range s {
		i, br := i, br
		wg.Go(func() {
			out, err := br.run(e, ec, input)
			outs[i], errs[i] = out, err
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return marshalArray(outs)
}

func (s choiceState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	for i, br := range s.branches {
		if br.When(input) {
			ec.trace.add(e.platform.Clock().Now(), "choice", fmt.Sprintf("branch %d", i))
			sp, ec := ec.childCtx(e, "", "choice")
			if sp.Active() {
				defer sp.EndAttrs(false, obs.Attr{Key: "branch", Value: fmt.Sprint(i)})
			}
			return br.Then.run(e, ec, input)
		}
	}
	if s.fallback == nil {
		return nil, ErrNoChoice
	}
	ec.trace.add(e.platform.Clock().Now(), "choice", "default")
	sp, ec := ec.childCtx(e, "", "choice")
	defer sp.EndAttrs(false, obs.Attr{Key: "branch", Value: "default"})
	return s.fallback.run(e, ec, input)
}

func (s mapState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	var items []json.RawMessage
	if err := json.Unmarshal(input, &items); err != nil {
		return nil, fmt.Errorf("%w: Map needs a JSON array: %v", ErrBadInput, err)
	}
	clock := e.platform.Clock()
	ec.trace.add(clock.Now(), "map", fmt.Sprintf("%d items", len(items)))
	sp, ec := ec.childCtx(e, "", "map")
	if sp.Active() {
		defer sp.EndAttrs(false, obs.Attr{Key: "items", Value: fmt.Sprint(len(items))})
	}
	outs := make([]json.RawMessage, len(items))
	errs := make([]error, len(items))
	wg := simclock.NewGroup(clock)
	var sem *simclock.Sem
	if s.maxConc > 0 {
		sem = simclock.NewSem(clock, s.maxConc)
	}
	for i, item := range items {
		i, item := i, item
		if sem != nil {
			sem.Acquire()
		}
		wg.Go(func() {
			if sem != nil {
				defer sem.Release()
			}
			out, err := s.iterator.run(e, ec, item)
			outs[i], errs[i] = out, err
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return marshalArray(outs)
}

func (s waitState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	ec.trace.add(e.platform.Clock().Now(), "wait", time.Duration(s).String())
	sp, _ := ec.childCtx(e, "", "wait")
	e.platform.Clock().Sleep(time.Duration(s))
	sp.End()
	return input, nil
}

func (s passState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	if s.transform == nil {
		return input, nil
	}
	return s.transform(input)
}

func (s failState) run(e *Engine, ec *execCtx, input []byte) ([]byte, error) {
	return nil, fmt.Errorf("%w: %s", ErrFailed, string(s))
}

func marshalArray(outs []json.RawMessage) ([]byte, error) {
	for i, o := range outs {
		if len(o) == 0 {
			outs[i] = json.RawMessage("null")
		} else if !json.Valid(o) {
			// Function outputs are arbitrary bytes; wrap non-JSON output
			// as a JSON string so arrays always compose.
			q, _ := json.Marshal(string(o))
			outs[i] = q
		}
	}
	return json.Marshal(outs)
}
