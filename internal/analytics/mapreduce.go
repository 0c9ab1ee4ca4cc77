// Package analytics implements the PyWren-style serverless data analytics
// engine of §5.1 ([114]): MapReduce jobs whose mappers and reducers run as
// stateless functions on the FaaS platform, exchanging intermediate
// ("shuffle") state through an external store — either the blob store (the
// persistent-store path PyWren used) or a Jiffy namespace (the ephemeral
// path §4.4 argues for). The choice is an interface, so experiment E4's
// comparison falls out naturally.
package analytics

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/blob"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/simclock"
)

// ErrJobFailed wraps worker failures.
var ErrJobFailed = errors.New("analytics: job failed")

// KV is one intermediate key-value pair.
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// MapFunc turns one input chunk into intermediate pairs.
type MapFunc func(chunk string) []KV

// ReduceFunc folds all values of one key into a result.
type ReduceFunc func(key string, values []string) string

// ShuffleStore is where mappers leave partitions for reducers.
type ShuffleStore interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
}

// BlobShuffle adapts a blob bucket as a ShuffleStore.
type BlobShuffle struct {
	Store  *blob.Store
	Bucket string
}

// Put implements ShuffleStore.
func (b BlobShuffle) Put(key string, data []byte) error {
	_, err := b.Store.Put(b.Bucket, key, data, blob.PutOptions{})
	return err
}

// Get implements ShuffleStore.
func (b BlobShuffle) Get(key string) ([]byte, error) {
	data, _, err := b.Store.Get(b.Bucket, key)
	return data, err
}

// JiffyShuffle adapts a Jiffy namespace as a ShuffleStore.
type JiffyShuffle struct {
	NS *jiffy.Namespace
}

// Put implements ShuffleStore.
func (j JiffyShuffle) Put(key string, data []byte) error { return j.NS.Put(key, data) }

// Get implements ShuffleStore. Shuffle partitions are write-once (each
// mapper writes its own key) and only read after the map barrier, so the
// zero-copy view is safe: nothing overwrites the key while reducers decode
// it, and json.Unmarshal does not retain or mutate the input bytes.
func (j JiffyShuffle) Get(key string) ([]byte, error) { return j.NS.GetView(key) }

// Job describes one MapReduce run.
type Job struct {
	Name     string
	Reducers int
	Map      MapFunc
	Reduce   ReduceFunc
	// Tenant owns the worker functions (billing). Default "analytics".
	Tenant string
	// WorkerConfig configures the mapper/reducer functions.
	WorkerConfig faas.Config
}

// Run executes the job on the platform: one mapper invocation per input
// chunk, then Reducers reducer invocations, shuffling through store. It
// returns the final key→value results.
func Run(p *faas.Platform, store ShuffleStore, job Job, chunks []string) (map[string]string, error) {
	if job.Reducers <= 0 {
		job.Reducers = 1
	}
	if job.Tenant == "" {
		job.Tenant = "analytics"
	}
	mapperName := "mr-" + job.Name + "-map"
	reducerName := "mr-" + job.Name + "-reduce"

	// Mapper: chunk in, R partition files out.
	mapper := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct {
			Index int    `json:"index"`
			Chunk string `json:"chunk"`
		}
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		pairs := job.Map(in.Chunk)
		parts := make([][]KV, job.Reducers)
		for _, kv := range pairs {
			r := int(hashString(kv.K)) % job.Reducers
			parts[r] = append(parts[r], kv)
		}
		for r, part := range parts {
			data, _ := json.Marshal(part)
			if err := store.Put(shuffleKey(job.Name, in.Index, r), data); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	// Reducer: M partition files in, grouped results out.
	nChunks := len(chunks)
	reducer := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct {
			Partition int `json:"partition"`
		}
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		grouped := map[string][]string{}
		for m := 0; m < nChunks; m++ {
			data, err := store.Get(shuffleKey(job.Name, m, in.Partition))
			if err != nil {
				return nil, err
			}
			var part []KV
			if err := json.Unmarshal(data, &part); err != nil {
				return nil, err
			}
			for _, kv := range part {
				grouped[kv.K] = append(grouped[kv.K], kv.V)
			}
		}
		keys := make([]string, 0, len(grouped))
		for k := range grouped {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]KV, 0, len(keys))
		for _, k := range keys {
			out = append(out, KV{K: k, V: job.Reduce(k, grouped[k])})
		}
		return json.Marshal(out)
	}

	if err := p.Register(mapperName, job.Tenant, mapper, job.WorkerConfig); err != nil {
		return nil, err
	}
	defer p.UnregisterFor(job.Tenant, mapperName)
	if err := p.Register(reducerName, job.Tenant, reducer, job.WorkerConfig); err != nil {
		return nil, err
	}
	defer p.UnregisterFor(job.Tenant, reducerName)

	// Map phase: all chunks in parallel.
	wg := simclock.NewGroup(p.Clock())
	var mu sync.Mutex
	var firstErr error
	for i, chunk := range chunks {
		payload, _ := json.Marshal(struct {
			Index int    `json:"index"`
			Chunk string `json:"chunk"`
		}{i, chunk})
		wg.Add(1)
		p.InvokeAsyncFor(job.Tenant, mapperName, payload, func(_ faas.Result, err error) {
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("%w: map phase: %v", ErrJobFailed, firstErr)
	}

	// Reduce phase: all partitions in parallel.
	results := make([][]KV, job.Reducers)
	for r := 0; r < job.Reducers; r++ {
		r := r
		payload, _ := json.Marshal(struct {
			Partition int `json:"partition"`
		}{r})
		wg.Add(1)
		p.InvokeAsyncFor(job.Tenant, reducerName, payload, func(res faas.Result, err error) {
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				var out []KV
				if uerr := json.Unmarshal(res.Output, &out); uerr == nil {
					results[r] = out
				}
			}
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("%w: reduce phase: %v", ErrJobFailed, firstErr)
	}

	final := map[string]string{}
	for _, part := range results {
		for _, kv := range part {
			final[kv.K] = kv.V
		}
	}
	return final, nil
}

// WordCountMap splits a chunk into lowercase words, emitting (word, "1").
func WordCountMap(chunk string) []KV {
	fields := strings.FieldsFunc(strings.ToLower(chunk), func(r rune) bool {
		return !('a' <= r && r <= 'z') && !('0' <= r && r <= '9')
	})
	out := make([]KV, len(fields))
	for i, f := range fields {
		out[i] = KV{K: f, V: "1"}
	}
	return out
}

// SumReduce adds integer-valued strings.
func SumReduce(_ string, values []string) string {
	sum := 0
	for _, v := range values {
		var n int
		fmt.Sscanf(v, "%d", &n)
		sum += n
	}
	return fmt.Sprint(sum)
}

func shuffleKey(job string, mapper, partition int) string {
	return fmt.Sprintf("shuffle/%s/m%05d-r%05d", job, mapper, partition)
}

func hashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
