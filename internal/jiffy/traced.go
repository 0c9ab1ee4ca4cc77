package jiffy

import "repro/internal/obs"

// TracedNamespace is a value wrapper binding a namespace to one request's
// causal context: a Put records a "jiffy.put" child span on the request's
// trace. The wrapper is two words and
// lives on the caller's stack — taking one per request allocates nothing —
// and with a zero context (or no tracer attached) a Put degrades to the
// plain namespace call plus one branch.
type TracedNamespace struct {
	ns *Namespace
	tc obs.TraceCtx
}

// Traced binds the namespace to a request's causal context.
func (ns *Namespace) Traced(tc obs.TraceCtx) TracedNamespace {
	return TracedNamespace{ns: ns, tc: tc}
}

func (t TracedNamespace) span(name string) obs.SpanRef {
	if !t.tc.Valid() {
		return obs.SpanRef{}
	}
	return t.ns.ctrl.tracer.Start(t.tc, name)
}

// Put stores key→value, recording a "jiffy.put" span on the bound trace.
func (t TracedNamespace) Put(key string, value []byte) error {
	sp := t.span("jiffy.put")
	err := t.ns.Put(key, value)
	sp.EndErr(err != nil)
	return err
}
