package repro

// End-to-end causal-tracing gate: one warm Tenant.Invoke whose handler
// publishes to Pulsar and writes Jiffy state must produce exactly ONE trace
// spanning all four data-plane subsystems (faas, pulsar, ledger, jiffy),
// with the parent/child edges matching the actual call structure. This is
// the contract PR7's tentpole makes: a request is one causal story, not a
// handful of disconnected per-subsystem spans.

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/obs"
	"repro/internal/pulsar"
)

func TestSingleTraceAcrossSubsystems(t *testing.T) {
	p := core.New(core.Options{PulsarBatchMax: 1, PulsarFlushInterval: time.Hour})
	if err := p.Pulsar.CreateTopic("events", 0); err != nil {
		t.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducer("events")
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe before publishing so dispatch (and its deliver span) happens
	// inside the publish, while the trace is still open.
	cons, err := p.Pulsar.Subscribe("events", "sub", pulsar.Exclusive, pulsar.Earliest)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := p.Jiffy.CreateNamespace("/app", jiffy.NamespaceOptions{})
	if err != nil {
		t.Fatal(err)
	}

	acme := p.Tenant("acme")
	if err := acme.Register("handler", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		if _, err := prod.SendKeyTrace("", in, ctx.Trace); err != nil {
			return nil, err
		}
		if err := ns.Traced(ctx.Trace).Put("state", in); err != nil {
			return nil, err
		}
		return in, nil
	}, faas.Config{WarmStart: 1, ColdStart: 1, KeepAlive: time.Hour}); err != nil {
		t.Fatal(err)
	}

	res, err := acme.Invoke("handler", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("Result.TraceID is zero; invoke was not traced")
	}
	if _, ok := cons.TryReceive(); !ok {
		t.Fatal("published message was not delivered")
	}

	tr := p.Obs.Tracer()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want exactly 1: %+v", len(traces), traces)
	}
	if traces[0].TraceID != res.TraceID {
		t.Fatalf("trace id mismatch: summary %d, Result %d", traces[0].TraceID, res.TraceID)
	}
	if traces[0].Tenant != "acme" {
		t.Fatalf("trace tenant = %q, want acme", traces[0].Tenant)
	}

	var spans []obs.SpanData
	for _, sd := range tr.Spans() {
		if sd.TraceID == res.TraceID {
			spans = append(spans, sd)
		}
	}
	byName := map[string]obs.SpanData{}
	for _, sd := range spans {
		if _, dup := byName[sd.Name]; dup {
			t.Fatalf("duplicate span %q in single-invoke trace", sd.Name)
		}
		byName[sd.Name] = sd
	}
	for _, want := range []string{
		"faas.invoke", "faas.queue", "faas.handler",
		"pulsar.publish", "pulsar.deliver", "ledger.append", "jiffy.put",
	} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("trace missing span %q; have %v", want, names(spans))
		}
	}
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 7: %v", len(spans), names(spans))
	}

	root := byName["faas.invoke"]
	if root.ParentID != 0 || root.SpanID != root.TraceID {
		t.Fatalf("faas.invoke is not the trace root: %+v", root)
	}
	edges := map[string]string{
		"faas.queue":     "faas.invoke",
		"faas.handler":   "faas.invoke",
		"pulsar.publish": "faas.handler",
		"ledger.append":  "pulsar.publish",
		"pulsar.deliver": "pulsar.publish",
		"jiffy.put":      "faas.handler",
	}
	for child, parent := range edges {
		if byName[child].ParentID != byName[parent].SpanID {
			t.Fatalf("%s.ParentID = %d, want %s's SpanID %d",
				child, byName[child].ParentID, parent, byName[parent].SpanID)
		}
	}

	// A second invoke roots a second, distinct trace.
	res2, err := acme.Invoke("handler", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.TraceID == res.TraceID {
		t.Fatal("two invokes shared one trace id")
	}
	if got := len(tr.Traces()); got != 2 {
		t.Fatalf("got %d traces after second invoke, want 2", got)
	}
}

// TestTraceThroughBoundTopics: a traced publish to a topic bound to a
// function whose output topic is bound to a second function is one trace:
// the publish, its delivery, the first invoke, its output publish and the
// second invoke all carry the publish's trace id, each invoke parented on
// the publish that fed it.
func TestTraceThroughBoundTopics(t *testing.T) {
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	tr := p.Obs.Tracer()
	acme := p.Tenant("acme")
	cfg := faas.Config{WarmStart: 1, ColdStart: 1}
	var root obs.SpanRef
	v.Run(func() {
		for _, topic := range []string{"in", "mid", "out"} {
			if err := p.Pulsar.CreateTopic(topic, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, fn := range []string{"first", "second"} {
			if err := acme.Register(fn, func(_ *faas.Ctx, in []byte) ([]byte, error) { return in, nil }, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if err := faas.BindTopic(p.FaaS, p.Pulsar, "in", "acme", "first", "mid"); err != nil {
			t.Fatal(err)
		}
		if err := faas.BindTopic(p.FaaS, p.Pulsar, "mid", "acme", "second", "out"); err != nil {
			t.Fatal(err)
		}
		prod, err := p.Pulsar.CreateProducer("in")
		if err != nil {
			t.Fatal(err)
		}
		// The caller's span stays open until the run ends, so the trace
		// cannot finalize before the bound functions join it.
		root = tr.Start(obs.TraceCtx{}, "client")
		if _, err := prod.SendKeyTrace("k", []byte("payload"), root.Ctx()); err != nil {
			t.Fatal(err)
		}
	})
	root.End()

	if traces := tr.Traces(); len(traces) != 1 || traces[0].TraceID != root.TraceID() {
		t.Fatalf("traces = %+v, want exactly the client's", traces)
	}
	byName := map[string][]obs.SpanData{}
	for _, sd := range tr.Spans() {
		if sd.TraceID != root.TraceID() {
			t.Fatalf("span %q in trace %d, want %d", sd.Name, sd.TraceID, root.TraceID())
		}
		byName[sd.Name] = append(byName[sd.Name], sd)
	}
	// Publishes to in, mid and out; deliveries on in and mid (out has no
	// subscriber); one invoke per function.
	for name, want := range map[string]int{"pulsar.publish": 3, "pulsar.deliver": 2, "faas.invoke": 2} {
		if got := len(byName[name]); got != want {
			t.Fatalf("%d %q spans, want %d; have %v", got, name, want, names(tr.Spans()))
		}
	}
	// Each function's start takes a nanosecond, so the publishes, and the
	// invokes, start at distinct instants in causal order.
	pub, inv := byName["pulsar.publish"], byName["faas.invoke"]
	for _, ss := range [][]obs.SpanData{pub, inv} {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
	}
	for i, in := range inv {
		if in.ParentID != pub[i].SpanID {
			t.Fatalf("faas.invoke %d parent = %d, want the publish that fed it (%d)", i, in.ParentID, pub[i].SpanID)
		}
		if out := pub[i+1]; out.ParentID != pub[i].SpanID {
			t.Fatalf("output publish %d parent = %d, want its input's publish (%d)", i, out.ParentID, pub[i].SpanID)
		}
	}
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}
