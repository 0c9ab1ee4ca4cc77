package faas

import (
	"encoding/json"
	"time"

	"repro/internal/blob"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// BindTopic binds a Pulsar topic to tenant's function (the Pulsar Functions
// of §4.3.1, Fig. 3): each message's payload is one invocation's input,
// under the message's trace; a non-nil output goes to output, if named, under
// the input's key; a message is acked once both succeed. If either fails (a
// throttle included), the push consumer's contract (pulsar.Cluster.
// SubscribeFunc) invokes the function again a second later, and moves the
// message to the topic "<topic>-fn-<tenant>-<fn>-DLQ" after five failed
// calls; a binding runs one invocation at a time. Bindings of one function share
// the Shared subscription "fn-<tenant>-<fn>": binding again adds
// parallelism, binding per topic adds inputs. This is also the platform's
// queue trigger (the Lambda+SQS ETL pattern of §3.1).
func BindTopic(p *Platform, cluster *pulsar.Cluster, topic, tenant, fnName, output string) error {
	var out *pulsar.Producer
	if output != "" {
		var err error
		if out, err = cluster.CreateProducer(output); err != nil {
			return err
		}
	}
	return cluster.SubscribeFunc(topic, "fn-"+tenant+"-"+fnName, func(m pulsar.Message) error {
		res, err := p.InvokeForTraceIdem(tenant, fnName, m.Payload, m.Trace, "")
		if err == nil && res.Output != nil && out != nil {
			_, err = out.SendKeyTrace(m.Key, res.Output, m.Trace)
		}
		return err
	})
}

// BlobEvent is the JSON payload delivered to blob-triggered functions.
type BlobEvent struct {
	Type   string `json:"type"` // always "put"
	Bucket string `json:"bucket"`
	Key    string `json:"key"`
	Size   int    `json:"size"`
	ETag   string `json:"etag"`
}

// BindBlob invokes tenant's function for every put in the given bucket
// (the event-driven web/data-processing pattern of §3.1: an object lands in
// storage and a function reacts).
func BindBlob(p *Platform, store *blob.Store, bucketName, tenant, fnName string) {
	store.Subscribe(func(e blob.Event) {
		if e.Object.Bucket != bucketName {
			return
		}
		payload, _ := json.Marshal(BlobEvent{
			Type:   "put",
			Bucket: e.Object.Bucket,
			Key:    e.Object.Key,
			Size:   e.Object.Size,
			ETag:   e.Object.ETag,
		})
		p.InvokeAsyncFor(tenant, fnName, payload, nil)
	})
}

// DriveReport holds the outcome of every call a Drive run fires: slot i is
// call i's.
type DriveReport struct {
	results []Result
	errs    []error
	wg      *simclock.Group
}

// Wait blocks (clock-aware) until every driven invocation has completed and
// returns each call's final result and error in call order — index i is call
// i, whatever order the calls completed in.
func (r *DriveReport) Wait() ([]Result, []error) {
	r.wg.Wait()
	return r.results, r.errs
}

// Drive is the platform's one fan-out, the bridge from workload generators
// and fanned-out applications to the platform: call i invokes tenant's
// function asynchronously at arrivals[i] with payloads[i] as its input (a nil
// payloads gives every call a nil input). Offsets count from now and must be
// ascending. Every call gets InvokeAsyncFor's retry contract.
func Drive(p *Platform, tenant, fnName string, payloads [][]byte, arrivals []time.Duration) *DriveReport {
	n := len(arrivals)
	rep := &DriveReport{results: make([]Result, n), errs: make([]error, n), wg: simclock.NewGroup(p.clock)}
	rep.wg.Add(n)
	p.clock.Go(func() {
		var prev time.Duration
		for i, at := range arrivals {
			p.clock.Sleep(at - prev)
			prev = at
			var payload []byte
			if payloads != nil {
				payload = payloads[i]
			}
			// Each callback writes only its own slot; Group.Wait orders
			// every write before Wait's read.
			p.InvokeAsyncFor(tenant, fnName, payload, func(res Result, err error) {
				rep.results[i], rep.errs[i] = res, err
				rep.wg.Done()
			})
		}
	})
	return rep
}
