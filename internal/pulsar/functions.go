package pulsar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// ErrNoOutput is returned by FnContext.Publish when the function has no
// output topic configured.
var ErrNoOutput = errors.New("pulsar: function has no output topic")

// FnContext is the per-invocation context handed to a Pulsar function,
// mirroring org.apache.pulsar.functions.api.Context in Figure 3: access to
// durable per-function state and publishing to the output topic.
type FnContext struct {
	fn  *RunningFunction
	msg Message
}

// Message returns the message being processed.
func (c *FnContext) Message() Message { return c.msg }

// FunctionName returns the processing function's name.
func (c *FnContext) FunctionName() string { return c.fn.cfg.Name }

// GetState reads a state value (nil if absent).
func (c *FnContext) GetState(key string) []byte {
	c.fn.stateMu.Lock()
	defer c.fn.stateMu.Unlock()
	v, ok := c.fn.state[key]
	if !ok {
		return nil
	}
	return append([]byte(nil), v...)
}

// PutState writes a state value.
func (c *FnContext) PutState(key string, value []byte) {
	c.fn.stateMu.Lock()
	defer c.fn.stateMu.Unlock()
	c.fn.state[key] = append([]byte(nil), value...)
}

// IncrCounter adds delta to a state counter and returns the new value —
// the state primitive stateful analytics functions (Figure 3) build on.
func (c *FnContext) IncrCounter(key string, delta int64) int64 {
	c.fn.stateMu.Lock()
	defer c.fn.stateMu.Unlock()
	var cur int64
	if v, ok := c.fn.state[key]; ok && len(v) == 8 {
		cur = int64(binary.BigEndian.Uint64(v))
	}
	cur += delta
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(cur))
	c.fn.state[key] = buf
	return cur
}

// Counter reads a state counter.
func (c *FnContext) Counter(key string) int64 {
	c.fn.stateMu.Lock()
	defer c.fn.stateMu.Unlock()
	if v, ok := c.fn.state[key]; ok && len(v) == 8 {
		return int64(binary.BigEndian.Uint64(v))
	}
	return 0
}

// Publish sends a keyed payload to the function's output topic.
func (c *FnContext) Publish(key string, payload []byte) error {
	if c.fn.out == nil {
		return ErrNoOutput
	}
	_, err := c.fn.out.SendKey(key, payload)
	return err
}

// FnHandler is a Pulsar function body: it processes one input message; a
// non-nil return value is published to the output topic (keyed by the input
// message's key).
type FnHandler func(ctx *FnContext, msg Message) ([]byte, error)

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

	stateMu sync.Mutex
	state   map[string][]byte

	processed int64
	errs      int64
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
	rf := &RunningFunction{cluster: c, cfg: cfg, handler: handler, state: map[string][]byte{}, wg: simclock.NewGroup(c.clock)}
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
			ctx := &FnContext{fn: rf, msg: m}
			out, err := rf.handler(ctx, m)
			if err != nil {
				atomic.AddInt64(&rf.errs, 1)
				continue // unacked: redelivers per subscription semantics
			}
			if out != nil && rf.out != nil {
				if _, err := rf.out.SendKey(m.Key, out); err != nil {
					atomic.AddInt64(&rf.errs, 1)
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

// Errors returns how many handler or publish errors occurred.
func (rf *RunningFunction) Errors() int64 { return atomic.LoadInt64(&rf.errs) }

// StateSnapshot copies the function's state map (for inspection).
func (rf *RunningFunction) StateSnapshot() map[string][]byte {
	rf.stateMu.Lock()
	defer rf.stateMu.Unlock()
	out := make(map[string][]byte, len(rf.state))
	for k, v := range rf.state {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// Stop signals every instance to exit and waits for them (clock-aware).
func (rf *RunningFunction) Stop() {
	atomic.StoreInt32(&rf.stopped, 1)
	rf.wg.Wait()
}
