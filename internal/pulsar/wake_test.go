package pulsar

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/simclock"
)

// newRealCluster is a one-broker, three-bookie cluster on the wall clock with
// no modelled latency.
func newRealCluster() *Cluster {
	clock := simclock.Real{}
	meta := coord.NewStore(clock)
	ls := ledger.NewSystem(clock, meta)
	for i := 0; i < 3; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	c := NewCluster(clock, meta, ls, nil, ClusterConfig{})
	c.AddBroker("broker-0")
	return c
}

// waitParked spins until the consumer's Receive has parked.
func waitParked(cons *Consumer) {
	for cons.state.Load() != recvWaiting {
		runtime.Gosched()
	}
}

// TestReceiveParkZeroAllocs: a send that wakes a parked Receive, plus the
// ack, costs what a send alone does (TestPublishSyncAtMostOneAlloc's ≤1): the
// park, its deadline timer and the wake allocate nothing.
func TestReceiveParkZeroAllocs(t *testing.T) {
	const warm, runs = 1000, 1000
	c := newRealCluster()
	must(t, c.CreateTopic("park", 0))
	prod, err := c.CreateProducer("park")
	must(t, err)
	cons, err := c.Subscribe("park", "s", Exclusive, Latest)
	must(t, err)
	defer cons.Close()
	acked := make(chan struct{})
	go func() {
		// One more than warm+runs: AllocsPerRun makes a warm-up call.
		for i := 0; i < warm+runs+1; i++ {
			m, ok := cons.Receive(time.Hour)
			if !ok {
				t.Error("Receive timed out")
			} else if err := cons.Ack(m); err != nil {
				t.Error(err)
			}
			acked <- struct{}{}
		}
	}()
	payload := make([]byte, 256)
	cycle := func() {
		waitParked(cons)
		if _, err := prod.SendKey("", payload); err != nil {
			t.Error(err)
		}
		<-acked
	}
	for i := 0; i < warm; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(runs, cycle); got > 1 {
		t.Fatalf("a send that wakes a parked Receive, plus its ack, allocates %.3f allocs/op, want <= 1", got)
	}
}

// TestCloseUnlistsConsumer: the cluster's list of consumers to wake holds the
// open ones only.
func TestCloseUnlistsConsumer(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		for i := 0; i < 1000; i++ {
			cons, err := e.cluster.Subscribe("t", "s", Shared, Latest)
			must(t, err)
			cons.Close()
		}
	})
	if n := len(e.cluster.consumers); n != 0 {
		t.Fatalf("%d consumers listed after 1000 Subscribe/Close cycles, want 0", n)
	}
}

// TestClosedConsumerIsCollected: a Receive(time.Hour) that returned early
// leaves its real-clock deadline pending for an hour, and that timer, the
// cluster and its brokers must not keep the consumer once it is closed. The
// sentinel is the consumer's Sem, which only the consumer refers to; its
// finalizer must run within 2 s of the first collection after Close.
func TestClosedConsumerIsCollected(t *testing.T) {
	c := newRealCluster()
	must(t, c.CreateTopic("gc", 0))
	prod, err := c.CreateProducer("gc")
	must(t, err)
	cons, err := c.Subscribe("gc", "s", Exclusive, Latest)
	must(t, err)
	got := make(chan bool)
	go func() {
		_, ok := cons.Receive(time.Hour)
		got <- ok
	}()
	waitParked(cons)
	_, err = prod.Send([]byte("m"))
	must(t, err)
	if !<-got {
		t.Fatal("Receive timed out")
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(cons.sem, func(*simclock.Sem) { close(freed) })
	cons.Close()
	cons = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a closed consumer was still reachable at the first collection after Close")
	}
	runtime.KeepAlive(c)
}

// TestParkedReceiveReturnsAtPublishInstant: Receive is woken by the delivery,
// not by a poll that finds it later.
func TestParkedReceiveReturnsAtPublishInstant(t *testing.T) {
	e := newEnv(t, 1, 3)
	var sent, got time.Time
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Latest)
		must(t, err)
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		g := simclock.NewGroup(e.v)
		g.Go(func() {
			e.v.Sleep(10*time.Millisecond + 333*time.Microsecond)
			if _, err := prod.Send([]byte("m")); err != nil {
				t.Error(err)
			}
			sent = e.v.Now()
		})
		if _, ok := cons.Receive(time.Hour); !ok {
			t.Error("Receive timed out")
		}
		got = e.v.Now()
		g.Wait()
	})
	if !got.Equal(sent) {
		t.Fatalf("Receive returned at +%v, the message was published at +%v", got.Sub(simclock.Epoch), sent.Sub(simclock.Epoch))
	}
}

// TestCloseReleasesParkedReceive: a Receive parked with an hour to go returns
// false at the instant another goroutine closes its consumer.
func TestCloseReleasesParkedReceive(t *testing.T) {
	e := newEnv(t, 1, 3)
	var closed, got time.Time
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Latest)
		must(t, err)
		g := simclock.NewGroup(e.v)
		g.Go(func() {
			e.v.Sleep(5*time.Millisecond + 333*time.Microsecond)
			cons.Close()
			closed = e.v.Now()
		})
		if _, ok := cons.Receive(time.Hour); ok {
			t.Error("a closed consumer received a message")
		}
		got = e.v.Now()
		g.Wait()
	})
	if !got.Equal(closed) {
		t.Fatalf("Receive returned at +%v, Close was at +%v", got.Sub(simclock.Epoch), closed.Sub(simclock.Epoch))
	}
}

// TestParkedReceiveFollowsOwnership: a Receive parked through a MoveTopic and
// a failover gets each phase's message at its publish instant: claim wakes
// it for the attach pass that subscribes it on the new owner. Each change
// comes while it is parked.
func TestParkedReceiveFollowsOwnership(t *testing.T) {
	e := newEnv(t, 3, 3)
	const part = "in-partition-0"
	type arrival struct {
		payload string
		at      time.Time
	}
	var sent, got []arrival
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 1))
		cons, err := e.cluster.Subscribe("in", "s", Failover, Earliest)
		must(t, err)
		prod, err := e.cluster.CreateProducer("in")
		must(t, err)
		g := simclock.NewGroup(e.v)
		g.Go(func() {
			for i := 0; i < 3; i++ {
				m, ok := cons.Receive(time.Hour)
				if !ok {
					t.Error("Receive timed out")
					return
				}
				got = append(got, arrival{string(m.Payload), e.v.Now()})
				if err := cons.Ack(m); err != nil {
					t.Error(err)
				}
			}
		})
		publish := func(phase, key string) {
			e.v.Sleep(5*time.Millisecond + 333*time.Microsecond)
			_, err := prod.SendKey(key, []byte(phase))
			must(t, err)
			sent = append(sent, arrival{phase, e.v.Now()})
			e.v.Sleep(5 * time.Millisecond) // the receiver takes it and parks again
		}
		publish("start", "k")
		must(t, e.cluster.MoveTopic(part, "broker-1"))
		publish("moved", "k")
		b1, _ := e.cluster.Broker("broker-1")
		b1.SetDown(true)
		publish("failover", "k")
		g.Wait()
	})
	if fmt.Sprint(got) != fmt.Sprint(sent) {
		t.Fatalf("received %v, want each phase at its publish instant %v", got, sent)
	}
}

// TestParkedReceiveWokenByOwnerCrash: a Receive parked with an unacked message
// out gets that message again at the instant its topic's owner crashes.
// SetDown wakes every consumer, and the attach pass claims the topic on the
// surviving broker, whose recovery redelivers it.
func TestParkedReceiveWokenByOwnerCrash(t *testing.T) {
	e := newEnv(t, 2, 3)
	var first, again Message
	var crashed, got time.Time
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Latest)
		must(t, err)
		prod, err := e.cluster.CreateProducer("t")
		must(t, err)
		_, err = prod.Send([]byte("m1"))
		must(t, err)
		var ok bool
		if first, ok = cons.Receive(time.Second); !ok {
			t.Fatal("Receive timed out on the first delivery")
		}
		owner, _ := e.cluster.lockHolder("t")
		g := simclock.NewGroup(e.v)
		g.Go(func() {
			e.v.Sleep(5*time.Millisecond + 333*time.Microsecond)
			owner.SetDown(true)
			crashed = e.v.Now()
		})
		if again, ok = cons.Receive(time.Hour); !ok {
			t.Error("Receive timed out")
		}
		got = e.v.Now()
		g.Wait()
	})
	if again.Seq != first.Seq || string(again.Payload) != "m1" {
		t.Fatalf("after the crash Receive got seq %d %q, want the redelivered seq %d %q", again.Seq, again.Payload, first.Seq, "m1")
	}
	if !got.Equal(crashed) {
		t.Fatalf("Receive returned at +%v, the owner crashed at +%v", got.Sub(simclock.Epoch), crashed.Sub(simclock.Epoch))
	}
}
