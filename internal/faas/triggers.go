package faas

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
	"repro/internal/simclock"
)

// BindQueue wires a queue as an event source for tenant's function (the
// Lambda+SQS ETL pattern of §3.1): every send triggers a dispatch that
// receives up to batch messages, invokes the function once per message, and
// acks messages whose invocation succeeded. Failed messages stay on the queue
// and redeliver after the visibility timeout, feeding the dead-letter redrive
// policy.
func BindQueue(p *Platform, qs *queue.Service, queueName, tenant, fnName string, batch int) error {
	if batch <= 0 {
		batch = 1
	}
	return qs.OnSend(queueName, func(qn string) {
		deliveries, err := qs.Receive(qn, batch)
		if err != nil {
			return
		}
		for _, d := range deliveries {
			d := d
			p.InvokeAsyncFor(tenant, fnName, d.Body, func(_ Result, err error) {
				if err == nil {
					_ = qs.Ack(qn, d.ReceiptHandle)
				}
			})
		}
	})
}

// BlobEvent is the JSON payload delivered to blob-triggered functions.
type BlobEvent struct {
	Type   string `json:"type"` // "put" or "delete"
	Bucket string `json:"bucket"`
	Key    string `json:"key"`
	Size   int    `json:"size"`
	ETag   string `json:"etag"`
}

// BindBlob invokes tenant's function for every mutation in the given bucket
// (the event-driven web/data-processing pattern of §3.1: an object lands in
// storage and a function reacts).
func BindBlob(p *Platform, store *blob.Store, bucketName, tenant, fnName string) {
	store.Subscribe(func(e blob.Event) {
		if e.Object.Bucket != bucketName {
			return
		}
		typ := "put"
		if e.Type == blob.EventDelete {
			typ = "delete"
		}
		payload, _ := json.Marshal(BlobEvent{
			Type:   typ,
			Bucket: e.Object.Bucket,
			Key:    e.Object.Key,
			Size:   e.Object.Size,
			ETag:   e.Object.ETag,
		})
		p.InvokeAsyncFor(tenant, fnName, payload, nil)
	})
}

// DriveReport collects the outcomes of a Drive run.
type DriveReport struct {
	mu      sync.Mutex
	results []Result
	wg      *simclock.Group
}

// Results returns the collected invocation results (call after Wait).
func (r *DriveReport) Results() []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Result{}, r.results...)
}

// Wait blocks (clock-aware) until every driven invocation has completed.
func (r *DriveReport) Wait() { r.wg.Wait() }

// Drive replays an arrival schedule against tenant's function: at each offset
// in arrivals (relative to now), one asynchronous invocation fires. It is the
// bridge from workload generators to the platform used by the elasticity,
// cold-start and cost experiments (E1-E3).
func Drive(p *Platform, tenant, fnName string, payload []byte, arrivals []time.Duration) *DriveReport {
	rep := &DriveReport{wg: simclock.NewGroup(p.clock)}
	rep.wg.Add(len(arrivals))
	p.clock.Go(func() {
		var prev time.Duration
		for _, at := range arrivals {
			p.clock.Sleep(at - prev)
			prev = at
			p.InvokeAsyncFor(tenant, fnName, payload, func(res Result, _ error) {
				rep.mu.Lock()
				rep.results = append(rep.results, res)
				rep.mu.Unlock()
				rep.wg.Done()
			})
		}
	})
	return rep
}
