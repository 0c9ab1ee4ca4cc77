package repro

// End-to-end causal-tracing gate: one warm Tenant.Invoke whose handler
// publishes to Pulsar and writes Jiffy state must produce exactly ONE trace
// spanning all four data-plane subsystems (faas, pulsar, ledger, jiffy),
// with the parent/child edges matching the actual call structure. This is
// the contract PR7's tentpole makes: a request is one causal story, not a
// handful of disconnected per-subsystem spans.

import (
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

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}
