package conform

import (
	"strconv"

	"repro/internal/faas"
	"repro/internal/kvdb"
)

// Ref is one reference workload with its locked expected verdict — the
// regression suite for the explorer itself. The conformant entries prove the
// platform's exactly-once-observable recipes (constant writes, guarded
// counters, dedup windows); the non-conformant ones prove the explorer
// actually catches the canonical at-least-once bugs (unguarded
// read-modify-write, bare counter increments, republished messages,
// duplicate enqueues).
type Ref struct {
	Workload       Workload
	WantConformant bool
	Why            string
}

// References returns the reference workload library.
func References() []Ref {
	return []Ref{
		{
			Workload: Workload{
				Name: "put-constant",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.JiffyPut("k", []byte("v"))
				},
			},
			WantConformant: true,
			Why:            "a constant blind write lands on the same value however many times it replays",
		},
		{
			Workload: Workload{
				Name: "rmw-unguarded",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					n, err := e.JiffyGetInt("counter")
					if err != nil {
						return nil, err
					}
					return nil, e.JiffyPut("counter", []byte(strconv.Itoa(n+1)))
				},
			},
			WantConformant: false,
			Why:            "a crash after the put (or a duplicate delivery) re-runs the read-modify-write and double-increments",
		},
		{
			Workload: Workload{
				Name: "kv-put",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.KVTxn(func(tx *kvdb.Txn) error {
						return tx.Put(envTable, "pk", kvdb.Row{"v": "1"})
					})
				},
			},
			WantConformant: true,
			Why:            "a constant transactional put is idempotent; replayed commits rewrite the same row",
		},
		{
			Workload: Workload{
				Name: "counter-increment",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.KVTxn(func(tx *kvdb.Txn) error {
						row, _, err := tx.Get(envTable, "c")
						if err != nil {
							return err
						}
						n := 0
						if row != nil {
							n, _ = strconv.Atoi(row["n"])
						}
						return tx.Put(envTable, "c", kvdb.Row{"n": strconv.Itoa(n + 1)})
					})
				},
			},
			WantConformant: false,
			Why:            "the txn re-executes transparently on conflicts, but a crash after commit re-runs the whole handler: the increment applies twice",
		},
		{
			Workload: Workload{
				Name: "counter-dedup",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					reqID := string(payload)
					return nil, e.KVTxn(func(tx *kvdb.Txn) error {
						if _, ok, err := tx.Get(envTable, "done:"+reqID); err != nil {
							return err
						} else if ok {
							return nil // this request already applied
						}
						row, _, err := tx.Get(envTable, "c")
						if err != nil {
							return err
						}
						n := 0
						if row != nil {
							n, _ = strconv.Atoi(row["n"])
						}
						if err := tx.Put(envTable, "c", kvdb.Row{"n": strconv.Itoa(n + 1)}); err != nil {
							return err
						}
						return tx.Put(envTable, "done:"+reqID, kvdb.Row{})
					})
				},
			},
			WantConformant: true,
			Why:            "the guard row commits atomically with the increment, so a replay — crash-retry or duplicate — sees the marker and no-ops; this is the checked form of kvdb's transparent re-execution claim",
		},
		{
			Workload: Workload{
				Name:        "publish-sink",
				Invocations: 2,
				SinkTopic:   "sink",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.Publish(payload)
				},
			},
			WantConformant: false,
			Why:            "a crash after the publish republishes on retry: the sink's acked multiset gains a duplicate (lost consumer acks alone are fine — redelivery plus re-ack converges)",
		},
		{
			Workload: Workload{
				Name:        "enqueue-dup-unguarded",
				Invocations: 3,
				DupOnly:     true,
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.JiffyEnqueue(payload)
				},
			},
			WantConformant: false,
			Why:            "every duplicate delivery appends its payload again; the queue's final contents depend on the delivery count",
		},
		{
			Workload: Workload{
				Name:        "enqueue-dup-dedup",
				Invocations: 3,
				DupOnly:     true,
				DedupKeyed:  true,
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.JiffyEnqueue(payload)
				},
			},
			WantConformant: true,
			Why:            "the same enqueue handler under the per-function dedup window: duplicate keyed deliveries are answered from cache, never executed, never billed",
		},
		{
			Workload: Workload{
				Name: "blob-put",
				Handler: func(e *Env, ctx *faas.Ctx, payload []byte) ([]byte, error) {
					return nil, e.BlobPut("obj", payload)
				},
			},
			WantConformant: true,
			Why:            "replayed puts of the same bytes leave the same latest object version",
		},
	}
}
