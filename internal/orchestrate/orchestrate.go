// Package orchestrate implements the FaaS orchestration framework of §4.2:
// composition of serverless functions into state machines (tasks, sequences
// and parallel branches) in the style of AWS Step Functions / IBM Composer.
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

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Errors returned by the engine.
var (
	ErrUnknownTarget = errors.New("orchestrate: task target is neither a function nor a composition")
	ErrBadInput      = errors.New("orchestrate: input does not match state requirements")
)

// State is one node of a state machine. States are built with the
// constructors below and interpreted by Engine.Execute.
type State interface {
	run(e *Engine, ec *execCtx, input []byte) ([]byte, error)
}

// --- state constructors ---

type taskState struct {
	target string
	retry  faas.RetryPolicy
}

// Task invokes the named target — a registered platform function or a
// registered composition (property 2) — passing the state input as payload.
// It runs the target once.
func Task(target string) State {
	return taskState{target: target, retry: faas.RetryPolicy{MaxAttempts: 1}}
}

// TaskRetry is Task with a retry policy: the step is one
// faas.Platform.InvokeWithRetry, so the platform's one retry loop and its
// stop rule (faas.ClassOf) decide which failures are attempted again. Only a
// function target retries; a composition target with a policy of more than
// one attempt fails with ErrBadInput.
func TaskRetry(target string, retry faas.RetryPolicy) State {
	return taskState{target: target, retry: retry}
}

type chainState []State

// Chain runs states sequentially, piping each output into the next input.
func Chain(states ...State) State { return chainState(states) }

type parallelState []State

// Parallel runs branches concurrently on the same input; its output is the
// JSON array of branch outputs, in branch order.
func Parallel(branches ...State) State { return parallelState(branches) }

// --- engine ---

type execCtx struct {
	tenant string      // whose functions Task steps invoke
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
// observability attached, the execution is one span with a child span per
// step. A zero tc roots a new trace at it; a valid tc (the handler that runs
// the composition) makes it the caller's child.
func (e *Engine) Execute(tenant string, sm State, input []byte, tc obs.TraceCtx) ([]byte, error) {
	e.obsExecs.Inc()
	root := e.obs.Tracer().Start(tc, "orchestrate.execution")
	out, err := sm.run(e, &execCtx{tenant: tenant, span: root}, input)
	endSpan(root, err)
	return out, err
}

// --- interpreters ---

func (s taskState) run(e *Engine, ec *execCtx, input []byte) (out []byte, err error) {
	e.mu.Lock()
	comp, isComp := e.compositions[s.target]
	e.mu.Unlock()
	if isComp && s.retry.MaxAttempts != 1 {
		return nil, fmt.Errorf("%w: composition %q runs once; retry its function steps", ErrBadInput, s.target)
	}

	e.obsSteps.Inc()
	sp, ec := ec.childCtx(e, "task:", s.target)
	defer func() { endSpan(sp, err) }()
	if isComp {
		out, err = comp.run(e, ec, input)
	} else {
		// The step span's context rides into the platform, so the retry loop
		// and every attempt (queue, handler, and anything the handler
		// touches) join the execution's trace instead of rooting their own.
		var res faas.Result
		res, err = e.platform.InvokeWithRetry(ec.tenant, s.target, "", input, sp.Ctx(), s.retry)
		if errors.Is(err, faas.ErrNoFunction) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, s.target)
		}
		out = res.Output
	}
	if err != nil {
		return nil, err
	}
	return out, nil
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
	sp, ec := ec.childCtx(e, "", "parallel")
	if sp.Active() {
		defer sp.EndAttrs(false, obs.Attr{Key: "branches", Value: fmt.Sprint(len(s))})
	}
	return fanOut(e.platform.Clock(), len(s), func(i int) ([]byte, error) {
		return s[i].run(e, ec, input)
	})
}

// fanOut runs run(0) … run(n-1) concurrently on clock and returns the first
// error in index order or else the JSON array of their outputs in index
// order.
func fanOut(clock simclock.Clock, n int, run func(i int) ([]byte, error)) ([]byte, error) {
	outs := make([]json.RawMessage, n)
	errs := make([]error, n)
	wg := simclock.NewGroup(clock)
	for i := 0; i < n; i++ {
		wg.Go(func() {
			outs[i], errs[i] = run(i)
		})
	}
	wg.Wait()
	for i, o := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
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
