// Package queue implements the SQS/SNS-style messaging BaaS that serverless
// applications in §3.1 of the paper glue their event-driven pipelines with:
// at-least-once queues with visibility timeouts and dead-letter redrive, and
// notification topics that fan out to functions. Queues are the canonical
// FaaS event source (the "serverless ETL using Lambda and SQS" pattern the
// paper cites).
package queue

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Errors returned by Service operations.
var (
	ErrNoQueue     = errors.New("queue: queue does not exist")
	ErrQueueExists = errors.New("queue: queue already exists")
	ErrNoTopic     = errors.New("queue: topic does not exist")
	ErrTopicExists = errors.New("queue: topic already exists")
	ErrBadHandle   = errors.New("queue: invalid or stale receipt handle")
)

// Config parameterizes a queue.
type Config struct {
	// VisibilityTimeout hides a delivered message from other consumers
	// until it is acked or the timeout lapses (at-least-once semantics).
	VisibilityTimeout time.Duration
	// MaxReceive is how many deliveries a message gets before being moved
	// to the dead-letter queue. Zero means unlimited.
	MaxReceive int
	// DeadLetter names the queue that exhausted messages move to. Empty
	// with MaxReceive>0 drops them.
	DeadLetter string
}

// DefaultConfig mirrors common provider defaults.
func DefaultConfig() Config {
	return Config{VisibilityTimeout: 30 * time.Second}
}

// Message is a queued payload.
type Message struct {
	ID           int64
	Body         []byte
	SentAt       time.Time
	ReceiveCount int
}

// Delivery is one received message plus the receipt handle used to ack it.
type Delivery struct {
	Message
	ReceiptHandle string
}

type qmsg struct {
	msg       Message
	visibleAt time.Time
	gen       int // bumped per delivery; stale handles can't ack
	inflight  bool
}

type qstate struct {
	name   string
	tenant string
	cfg    Config
	msgs   []*qmsg // FIFO order
	onSend []func(queueName string)
}

type topic struct {
	name     string
	tenant   string
	handlers []func(body []byte)
}

// Service hosts all queues and topics.
type Service struct {
	clock simclock.Clock
	meter *billing.Meter

	mu     sync.Mutex
	queues map[string]*qstate
	topics map[string]*topic
	nextID int64

	// Pre-resolved observability handles; nil (no-ops) until SetObs.
	obsSendLat    *obs.Histogram
	obsReceiveLat *obs.Histogram
}

// New creates an empty Service. meter may be nil.
func New(clock simclock.Clock, meter *billing.Meter) *Service {
	return &Service{clock: clock, meter: meter, queues: map[string]*qstate{}, topics: map[string]*topic{}}
}

// SetObs attaches observability instruments. Call before traffic starts.
func (s *Service) SetObs(r *obs.Registry) {
	s.obsSendLat = r.Histogram("queue.send.latency")
	s.obsReceiveLat = r.Histogram("queue.receive.latency")
}

// CreateQueue makes a queue billed to tenant.
func (s *Service) CreateQueue(name, tenant string, cfg Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; ok {
		return fmt.Errorf("%w: %q", ErrQueueExists, name)
	}
	s.queues[name] = &qstate{name: name, tenant: tenant, cfg: cfg}
	return nil
}

// OnSend registers fn to run synchronously after every Send to the named
// queue. FaaS event-source mappings hook here so that virtual-clock
// experiments stay event-driven rather than polling.
func (s *Service) OnSend(name string, fn func(queueName string)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoQueue, name)
	}
	q.onSend = append(q.onSend, fn)
	return nil
}

// Send enqueues a message and returns its ID.
func (s *Service) Send(name string, body []byte) (int64, error) {
	if s.obsSendLat != nil {
		start := s.clock.Now()
		defer func() { s.obsSendLat.Observe(s.clock.Now().Sub(start)) }()
	}
	s.mu.Lock()
	q, ok := s.queues[name]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrNoQueue, name)
	}
	s.nextID++
	id := s.nextID
	q.msgs = append(q.msgs, &qmsg{
		msg:       Message{ID: id, Body: append([]byte(nil), body...), SentAt: s.clock.Now()},
		visibleAt: s.clock.Now(),
	})
	tenant := q.tenant
	hooks := append([]func(string){}, q.onSend...)
	s.mu.Unlock()

	s.meterAdd(tenant, 1)
	for _, fn := range hooks {
		fn(name)
	}
	return id, nil
}

// Receive returns up to max visible messages, hiding each for the queue's
// visibility timeout. Exhausted messages (ReceiveCount ≥ MaxReceive) are
// redriven to the dead-letter queue instead of delivered.
func (s *Service) Receive(name string, max int) ([]Delivery, error) {
	if s.obsReceiveLat != nil {
		start := s.clock.Now()
		defer func() { s.obsReceiveLat.Observe(s.clock.Now().Sub(start)) }()
	}
	s.mu.Lock()
	q, ok := s.queues[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoQueue, name)
	}
	now := s.clock.Now()
	var out []Delivery
	var redrive []*qmsg
	kept := q.msgs[:0]
	for _, m := range q.msgs {
		if len(out) >= max || m.visibleAt.After(now) {
			kept = append(kept, m)
			continue
		}
		if q.cfg.MaxReceive > 0 && m.msg.ReceiveCount >= q.cfg.MaxReceive {
			redrive = append(redrive, m)
			continue // dropped from this queue either way
		}
		m.msg.ReceiveCount++
		m.gen++
		m.visibleAt = now.Add(q.cfg.VisibilityTimeout)
		m.inflight = true
		out = append(out, Delivery{
			Message:       m.msg,
			ReceiptHandle: handle(name, m.msg.ID, m.gen),
		})
		kept = append(kept, m)
	}
	q.msgs = kept
	dlq := q.cfg.DeadLetter
	tenant := q.tenant
	s.mu.Unlock()

	s.meterAdd(tenant, 1)
	for _, m := range redrive {
		if dlq != "" {
			_, _ = s.Send(dlq, m.msg.Body)
		}
	}
	return out, nil
}

// Ack deletes a delivered message using its receipt handle. A stale handle
// (the message timed out and was redelivered) returns ErrBadHandle.
func (s *Service) Ack(name, receiptHandle string) error {
	var id int64
	var gen int
	var qname string
	if _, err := fmt.Sscanf(receiptHandle, "%s %d %d", &qname, &id, &gen); err != nil || qname != name {
		return fmt.Errorf("%w: %q", ErrBadHandle, receiptHandle)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoQueue, name)
	}
	for i, m := range q.msgs {
		if m.msg.ID == id {
			if m.gen != gen {
				return fmt.Errorf("%w: message %d redelivered", ErrBadHandle, id)
			}
			q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: message %d gone", ErrBadHandle, id)
}

// CreateTopic makes a notification topic billed to tenant.
func (s *Service) CreateTopic(name, tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	s.topics[name] = &topic{name: name, tenant: tenant}
	return nil
}

// SubscribeFunc delivers topic messages synchronously to fn.
func (s *Service) SubscribeFunc(topicName string, fn func(body []byte)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.topics[topicName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTopic, topicName)
	}
	t.handlers = append(t.handlers, fn)
	return nil
}

// Publish fans a message out to every topic subscriber.
func (s *Service) Publish(topicName string, body []byte) error {
	s.mu.Lock()
	t, ok := s.topics[topicName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoTopic, topicName)
	}
	handlers := append([]func([]byte){}, t.handlers...)
	tenant := t.tenant
	s.mu.Unlock()

	s.meterAdd(tenant, 1)
	for _, fn := range handlers {
		fn(append([]byte(nil), body...))
	}
	return nil
}

func (s *Service) meterAdd(tenant string, units float64) {
	if s.meter != nil {
		s.meter.Add(billing.Record{Tenant: tenant, Resource: billing.ResQueueReqs, Units: units})
	}
}

func handle(queue string, id int64, gen int) string {
	return fmt.Sprintf("%s %d %d", queue, id, gen)
}
