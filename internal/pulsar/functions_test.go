package pulsar

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestFunctionCountsEvents(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("events", 0))
		must(t, e.cluster.CreateTopic("counts", 0))

		// The Figure-3 pattern: a function keeping per-key counters over a
		// stream in its closure, publishing updated counts downstream.
		counts := map[string]int{} // one instance: the handler runs serially
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:   "counter",
			Inputs: []string{"events"},
			Output: "counts",
		}, func(m Message) ([]byte, error) {
			counts[m.Key]++
			return []byte(fmt.Sprintf("%s=%d", m.Key, counts[m.Key])), nil
		})
		must(t, err)

		prod, _ := e.cluster.CreateProducer("events")
		for i := 0; i < 9; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), nil)
			must(t, err)
		}
		out, err := e.cluster.Subscribe("counts", "check", Exclusive, Earliest)
		must(t, err)
		results := map[string]bool{}
		for i := 0; i < 9; i++ {
			m, ok := out.Receive(2 * time.Second)
			if !ok {
				t.Fatalf("timeout after %d results", i)
			}
			results[string(m.Payload)] = true
			must(t, out.Ack(m))
		}
		rf.Stop()
		// Each key must have reached count 3.
		for _, k := range []string{"k0", "k1", "k2"} {
			if !results[k+"=3"] {
				t.Errorf("missing final count for %s: %v", k, results)
			}
		}
		if rf.Processed() != 9 {
			t.Errorf("processed = %d, want 9", rf.Processed())
		}
	})
}

func TestFunctionParallelInstancesShareWork(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 0))
		var handled atomic.Int64
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:      "sink",
			Inputs:    []string{"in"},
			Instances: 3,
		}, func(m Message) ([]byte, error) {
			handled.Add(1)
			return nil, nil
		})
		must(t, err)
		prod, _ := e.cluster.CreateProducer("in")
		for i := 0; i < 30; i++ {
			_, err := prod.Send([]byte("x"))
			must(t, err)
		}
		// Let instances drain.
		for i := 0; i < 200 && rf.Processed() < 30; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		rf.Stop()
		if rf.Processed() != 30 {
			t.Fatalf("processed = %d, want 30", rf.Processed())
		}
		if n := handled.Load(); n != 30 {
			t.Fatalf("handled = %d, want 30", n)
		}
	})
}

func TestFunctionRequiresInputs(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		if _, err := e.cluster.StartFunction(FunctionConfig{Name: "empty"}, nil); err == nil {
			t.Fatal("expected error for function with no inputs")
		}
	})
}

func TestFunctionTwoInputTopics(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("a", 0))
		must(t, e.cluster.CreateTopic("b", 0))
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:   "merge",
			Inputs: []string{"a", "b"},
		}, func(m Message) ([]byte, error) {
			return nil, nil
		})
		must(t, err)
		pa, _ := e.cluster.CreateProducer("a")
		pb, _ := e.cluster.CreateProducer("b")
		for i := 0; i < 3; i++ {
			_, err := pa.Send([]byte("x"))
			must(t, err)
			_, err = pb.Send([]byte("y"))
			must(t, err)
		}
		for i := 0; i < 200 && rf.Processed() < 6; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		rf.Stop()
		if rf.Processed() != 6 {
			t.Fatalf("processed = %d, want 6", rf.Processed())
		}
	})
}

// TestFunctionHandlerErrorLeavesMessageUnacked: a message whose handler
// fails is not acked, so the subscription delivers it again and it never
// counts as processed; the next message is unaffected.
func TestFunctionHandlerErrorLeavesMessageUnacked(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 0))
		must(t, e.cluster.CreateTopic("out", 0))
		var booms atomic.Int64
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name: "meta", Inputs: []string{"in"}, Output: "out",
		}, func(m Message) ([]byte, error) {
			if string(m.Payload) == "boom" {
				booms.Add(1)
				return nil, errString("handler error")
			}
			return []byte("seen"), nil
		})
		must(t, err)
		prod, _ := e.cluster.CreateProducer("in")
		_, err = prod.SendKey("k", []byte("ok"))
		must(t, err)
		_, err = prod.SendKey("k", []byte("boom"))
		must(t, err)
		for i := 0; i < 400 && rf.Processed() < 1; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		// Give the failing message a few redelivery attempts, then stop.
		e.v.Sleep(100 * time.Millisecond)
		rf.Stop()
		if booms.Load() == 0 {
			t.Errorf("the failing message never reached the handler")
		}
		if rf.Processed() != 1 {
			t.Errorf("processed = %d, want 1 (the failed message stays unacked)", rf.Processed())
		}
		out, err := e.cluster.Subscribe("out", "check", Exclusive, Earliest)
		must(t, err)
		if m, ok := out.Receive(time.Second); !ok || string(m.Payload) != "seen" || m.Key != "k" {
			t.Errorf("output = %q (key %q, ok %v), want the ok message's result keyed k", m.Payload, m.Key, ok)
		}
	})
}

type errString string

func (e errString) Error() string { return string(e) }
