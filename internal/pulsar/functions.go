package pulsar

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// FnHandler is a Pulsar function body: it processes one input message; a
// non-nil return value is published to the output topic (keyed by the input
// message's key). A function that keeps state keeps it in the handler's
// closure, as Figure 3's CountMinFunction keeps its sketch in a field.
type FnHandler func(msg Message) ([]byte, error)

// FunctionConfig declares a Pulsar function (§4.3.1): which topics it
// consumes, where its results go, and its parallelism.
type FunctionConfig struct {
	Name   string
	Inputs []string // input topics
	Output string   // optional output topic
	// Instances is the function's parallelism; instances share a Shared
	// subscription named "fn-<Name>". Default 1.
	Instances int
	// PollTimeout bounds each instance's receive wait (default 5ms); it is
	// also the function's stop-detection latency.
	PollTimeout time.Duration
}

// RunningFunction is a deployed Pulsar function.
type RunningFunction struct {
	cluster *Cluster
	cfg     FunctionConfig
	handler FnHandler
	out     *Producer

	processed int64
	stopped   int32
	wg        *simclock.Group
}

// StartFunction deploys a function: its instances run as tracked goroutines
// consuming the input topics until Stop is called.
func (c *Cluster) StartFunction(cfg FunctionConfig, handler FnHandler) (*RunningFunction, error) {
	if cfg.Instances <= 0 {
		cfg.Instances = 1
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 5 * time.Millisecond
	}
	if len(cfg.Inputs) == 0 {
		return nil, fmt.Errorf("pulsar: function %q has no input topics", cfg.Name)
	}
	rf := &RunningFunction{cluster: c, cfg: cfg, handler: handler, wg: simclock.NewGroup(c.clock)}
	if cfg.Output != "" {
		out, err := c.CreateProducer(cfg.Output)
		if err != nil {
			return nil, err
		}
		rf.out = out
	}
	subName := "fn-" + cfg.Name
	for i := 0; i < cfg.Instances; i++ {
		var consumers []*Consumer
		for _, in := range cfg.Inputs {
			cons, err := c.Subscribe(in, subName, Shared, Latest)
			if err != nil {
				rf.Stop()
				return nil, err
			}
			consumers = append(consumers, cons)
		}
		rf.wg.Go(func() { rf.instanceLoop(consumers) })
	}
	return rf, nil
}

func (rf *RunningFunction) instanceLoop(consumers []*Consumer) {
	defer func() {
		for _, cons := range consumers {
			cons.Close()
		}
	}()
	for atomic.LoadInt32(&rf.stopped) == 0 {
		got := false
		for _, cons := range consumers {
			m, ok := cons.TryReceive()
			if !ok {
				continue
			}
			got = true
			out, err := rf.handler(m)
			if err != nil {
				continue // unacked: redelivers per subscription semantics
			}
			if out != nil && rf.out != nil {
				if _, err := rf.out.SendKey(m.Key, out); err != nil {
					continue
				}
			}
			if err := cons.Ack(m); err == nil {
				atomic.AddInt64(&rf.processed, 1)
			}
		}
		if !got {
			rf.cluster.clock.Sleep(rf.cfg.PollTimeout)
		}
	}
}

// Processed returns how many messages the function has successfully handled.
func (rf *RunningFunction) Processed() int64 { return atomic.LoadInt64(&rf.processed) }

// Stop signals every instance to exit and waits for them (clock-aware).
func (rf *RunningFunction) Stop() {
	atomic.StoreInt32(&rf.stopped, 1)
	rf.wg.Wait()
}
