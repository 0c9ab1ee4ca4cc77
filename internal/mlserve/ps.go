package mlserve

import (
	"time"

	"repro/internal/simclock"
)

// Server is a parameter server: it holds the model weights and processes
// gradient applications *sequentially*, each costing a modelled
// service time — the serialization that makes a flat parameter server the
// bottleneck of data-parallel training as worker counts grow, and that
// hierarchical aggregation ([94]) alleviates.
type Server struct {
	clock   simclock.Clock
	service time.Duration

	mu *simclock.Sem // one permit: held across the modelled service time
	w  []float64
}

// NewServer creates a parameter server with zero-initialized weights of the
// given dimension and the given per-request service time.
func NewServer(clock simclock.Clock, dim int, service time.Duration) *Server {
	return &Server{clock: clock, service: service, mu: simclock.NewSem(clock, 1), w: make([]float64, dim)}
}

// Apply subtracts factor·grad from the weights, paying one service time.
func (s *Server) Apply(grad []float64, factor float64) {
	s.mu.Acquire()
	defer s.mu.Release()
	s.clock.Sleep(s.service)
	for i := range s.w {
		s.w[i] -= factor * grad[i]
	}
}

// Snapshot returns the weights without paying service time (coordinator
// bookkeeping, not a modelled network request).
func (s *Server) Snapshot() []float64 {
	s.mu.Acquire()
	defer s.mu.Release()
	return append([]float64{}, s.w...)
}

// Pusher accepts worker gradients. Both Server (flat topology) and
// Aggregator (hierarchical) implement it.
type Pusher interface {
	// Push contributes one worker's summed gradient; factor is the
	// per-worker update scale applied at the root.
	Push(grad []float64, factor float64)
}

// Push implements Pusher for the flat topology: every worker pushes straight
// to the root server.
func (s *Server) Push(grad []float64, factor float64) {
	s.Apply(grad, factor)
}

// Aggregator is one mid-tier node of a hierarchical parameter server: it
// absorbs fanIn worker pushes (each paying the aggregator's service time,
// but in parallel across aggregators), then forwards a single combined
// update to the root.
type Aggregator struct {
	clock   simclock.Clock
	root    *Server
	fanIn   int
	service time.Duration

	mu     *simclock.Sem // one permit, as Server.mu
	acc    []float64
	factor float64
	count  int
}

// NewAggregator creates an aggregator forwarding to root after fanIn pushes.
func NewAggregator(clock simclock.Clock, root *Server, fanIn int, service time.Duration) *Aggregator {
	return &Aggregator{clock: clock, root: root, fanIn: fanIn, service: service, mu: simclock.NewSem(clock, 1)}
}

// Push implements Pusher.
func (a *Aggregator) Push(grad []float64, factor float64) {
	a.mu.Acquire()
	a.clock.Sleep(a.service)
	if a.acc == nil {
		a.acc = make([]float64, len(grad))
	}
	for i := range grad {
		a.acc[i] += grad[i]
	}
	a.factor = factor
	a.count++
	var flush []float64
	var f float64
	if a.count >= a.fanIn {
		flush, f = a.acc, a.factor
		a.acc, a.count = nil, 0
	}
	a.mu.Release()
	if flush != nil {
		a.root.Apply(flush, f)
	}
}
