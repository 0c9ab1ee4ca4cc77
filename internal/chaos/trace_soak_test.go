package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/jiffy"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// traceSoakSeed drives both the fault schedule and the tail sampler.
const traceSoakSeed = 11

// runTraceSoak drives traced traffic (explicit request roots wrapping pulsar
// publishes and jiffy puts) through a seeded fault schedule with tail
// sampling on, and returns the tracer's canonical digest — an id-free,
// order-independent hash of every kept trace's structure and virtual-clock
// timings.
func runTraceSoak(t *testing.T, seed int64) (digest string, stats obs.TracerStats) {
	t.Helper()
	v := simclock.NewVirtual()
	defer v.Close()
	meta := coord.NewStore(v)
	ls := ledger.NewSystem(v, meta)
	for i := 0; i < 3; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	cluster := pulsar.NewCluster(v, meta, ls, nil, pulsar.ClusterConfig{})
	for i := 0; i < 2; i++ {
		cluster.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	jc := jiffy.NewController(v, nil, jiffy.Config{Latency: jiffy.NoLatency, DefaultLease: -1})
	for i := 0; i < 3; i++ {
		jc.AddNode(fmt.Sprintf("mem-%d", i), 16)
	}
	reg := obs.New(v)
	ls.SetObs(reg)
	cluster.SetObs(reg)
	jc.SetObs(reg)
	tr := reg.Tracer()
	tr.SetMaxSpans(1 << 17)
	tr.SetSampler(obs.SamplerConfig{
		Seed:          seed,
		KeepFraction:  0.3,
		SlowThreshold: 4 * time.Millisecond,
	})

	inj := NewInjector(v, ls, cluster, jc)
	inj.SetObs(reg)
	sch := Generate(Options{
		Seed:       seed,
		Duration:   80 * time.Millisecond,
		Bookies:    ls.BookieIDs(),
		Brokers:    cluster.BrokerIDs(),
		JiffyNodes: jc.NodeIDs(),
		Crashes:    4,
		Stragglers: 2,
		Drops:      2,
	})
	// Bookie stragglers sleep under the brokers' topic locks and stall the
	// virtual clock (see cmd/taureau's startChaos); drop them here too.
	filtered := sch[:0]
	for _, e := range sch {
		if e.Kind == KindBookie && e.Op == OpSlow {
			continue
		}
		filtered = append(filtered, e)
	}

	v.Run(func() {
		must(t, cluster.CreateTopic("tsoak", 0))
		prod, err := cluster.CreateProducer("tsoak")
		must(t, err)
		cons, err := cluster.Subscribe("tsoak", "s", pulsar.Exclusive, pulsar.Earliest)
		must(t, err)
		ns, err := jc.CreateNamespace("/tsoak", jiffy.NamespaceOptions{Replicas: 2, InitialBlocks: 2})
		must(t, err)

		inj.Run(filtered)
		wg := simclock.NewGroup(v)
		prodDone := make(chan struct{})
		wg.Go(func() {
			defer close(prodDone)
			for i := 0; i < 40; i++ {
				root := tr.Start(obs.TraceCtx{}, "soak.request")
				_, perr := prod.SendKeyTrace("", []byte(fmt.Sprintf("m%d", i)), root.Ctx())
				tns := ns.Traced(root.Ctx())
				kerr := tns.Put(fmt.Sprintf("k%d", i), []byte("v"))
				root.EndErr(perr != nil || kerr != nil)
				v.Sleep(2 * time.Millisecond)
			}
		})
		wg.Go(func() {
			done := false
			for {
				m, ok := cons.Receive(4 * time.Millisecond)
				if ok {
					_ = cons.Ack(m)
					continue
				}
				if done {
					return
				}
				select {
				case <-prodDone:
					done = true
				default:
				}
			}
		})
		wg.Wait()
		inj.Wait()
	})
	sum := sha256.Sum256([]byte(tr.CanonicalText()))
	return hex.EncodeToString(sum[:]), tr.Stats()
}

// TestChaosTraceDeterminism is the tracing twin of TestChaosSoak: the same
// seeded chaos run, executed twice with tail sampling enabled, must produce
// byte-identical canonical trace digests. The digest deliberately excludes
// span/trace ids (goroutines race between virtual-clock advances, so atomic
// id assignment is not reproducible) — what must reproduce is everything an
// operator reads off a trace: structure, names, virtual timings, error
// flags, and which traces the sampler kept.
func TestChaosTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos trace soak skipped in -short")
	}
	d1, s1 := runTraceSoak(t, traceSoakSeed)
	if t.Failed() {
		t.Fatal("first trace soak run failed")
	}
	d2, s2 := runTraceSoak(t, traceSoakSeed)
	if d1 != d2 {
		t.Fatalf("trace digests differ across identical runs:\nrun1: %s (stats %+v)\nrun2: %s (stats %+v)", d1, s1, d2, s2)
	}
	if s1.KeptTraces == 0 {
		t.Errorf("sampler kept no traces (stats %+v); the soak produced nothing to digest", s1)
	}
	if s1.DiscardedTraces == 0 {
		t.Errorf("sampler discarded no traces (stats %+v); KeepFraction 0.3 should drop some", s1)
	}
}
