package core

import (
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/obs"
	"repro/internal/orchestrate"
)

func TestNewDefaults(t *testing.T) {
	p := New(Options{})
	if p.FaaS == nil || p.Blob == nil || p.DB == nil ||
		p.Coord == nil || p.Ledgers == nil || p.Pulsar == nil || p.Jiffy == nil ||
		p.Orchestrator == nil || p.Meter == nil {
		t.Fatal("subsystem missing from default platform")
	}
	if p.Elapsed() != 0 {
		t.Fatal("real-clock platform reports elapsed time")
	}
	if p.Jiffy.FreeBlocks() != 4*256 {
		t.Fatalf("jiffy pool = %d free blocks", p.Jiffy.FreeBlocks())
	}
}

// TestEndToEndPipeline drives one request through most of the stack: a blob
// upload triggers a function that writes a DB row, publishes to Pulsar, and
// leaves ephemeral state in Jiffy; billing reflects it all.
func TestEndToEndPipeline(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	v.Run(func() {
		must(t, p.Blob.CreateBucket("uploads", "acme"))
		must(t, p.DB.CreateTable("files", "acme"))
		must(t, p.Pulsar.CreateTopic("uploaded", 0))
		tenant, err := p.Jiffy.CreateNamespace("/acme", jiffy.NamespaceOptions{Lease: -1})
		must(t, err)
		ns, err := tenant.CreateChild("pipeline", jiffy.NamespaceOptions{Lease: -1})
		must(t, err)
		prod, err := p.Pulsar.CreateProducer("uploaded")
		must(t, err)

		handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(10 * time.Millisecond)
			if err := p.DB.RunTxn(func(tx *kvdb.Txn) error {
				return tx.Put("files", "f1", kvdb.Row{"status": "processed"})
			}); err != nil {
				return nil, err
			}
			if _, err := prod.Send([]byte("f1 done")); err != nil {
				return nil, err
			}
			return nil, ns.Put("last", payload)
		}
		must(t, p.Tenant("acme").Register("process", handler, faas.Config{}))

		cons, err := p.Pulsar.Subscribe("uploaded", "audit", 0, 1) // Exclusive, Earliest
		must(t, err)

		res, err := p.Tenant("acme").Invoke("process", []byte("hello"))
		must(t, err)
		if !res.Cold {
			t.Error("first invocation should be cold")
		}

		// DB row landed.
		row, ok, err := p.DB.Begin().Get("files", "f1")
		must(t, err)
		if !ok || row["status"] != "processed" {
			t.Errorf("db row = %v ok=%v", row, ok)
		}
		// Message landed.
		m, ok := cons.Receive(time.Second)
		if !ok || string(m.Payload) != "f1 done" {
			t.Errorf("pulsar message = %q ok=%v", m.Payload, ok)
		}
		// Ephemeral state landed.
		got, err := ns.Get("last")
		must(t, err)
		if string(got) != "hello" {
			t.Errorf("jiffy state = %q", got)
		}
	})
	inv := p.Tenant("acme").Invoice()
	if inv.Total <= 0 {
		t.Fatalf("invoice total = %v", inv.Total)
	}
	if p.Meter.Units("acme", billing.ResInvocationReqs) != 1 {
		t.Fatal("invocation not billed")
	}
	if p.Meter.Units("pulsar", billing.ResMsgPublish) != 1 {
		t.Fatal("publish not billed")
	}
}

func TestOrchestratorWired(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	v.Run(func() {
		must(t, p.Tenant("t").Register("double", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return append(in, in...), nil
		}, faas.Config{}))
		out, err := p.Orchestrator.Execute("t", orchestrate.Chain(
			orchestrate.Task("double"),
			orchestrate.Task("double"),
		), []byte("ab"), obs.TraceCtx{})
		must(t, err)
		if string(out) != "abababab" {
			t.Errorf("out = %q", out)
		}
	})
}

func TestElapsedOnVirtualClock(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	v.Run(func() { v.Sleep(time.Minute) })
	if p.Elapsed() != time.Minute {
		t.Fatalf("Elapsed = %v", p.Elapsed())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
