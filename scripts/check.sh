#!/usr/bin/env bash
# Tier-1 gate: vet, build, API.md against the exported surface
# (scripts/api.sh), the whole suite under the race detector (about a minute
# on 2 CPUs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== internal/simclock/virtual.go never consults the wall clock"
if grep -nE 'time\.(Sleep|After|NewTimer)\b' internal/simclock/virtual.go; then
	echo "check: the virtual clock must not wait on wall time" >&2
	exit 1
fi
echo "== consumers are woken, never polled"
if grep -rn 'receivePoll\|replPoll' internal/; then
	echo "check: a consumer waits on its wake; receivePoll and replPoll are gone" >&2
	exit 1
fi
echo "== a read is never called for its side effect: no StatsFor result is discarded"
if grep -rnE '^\s*(_\s*(,\s*_\s*)?=\s*)?[A-Za-z_][A-Za-z0-9_.()]*\.StatsFor\(' --include='*.go' internal/ cmd/; then
	echo "check: StatsFor is a pure read; keep-alive reaping is the timer's job, not a probe's" >&2
	exit 1
fi
echo "== a producer holds no entry allocator: entry bytes belong to the topic's ledger"
if grep -n 'arena' internal/pulsar/client.go; then
	echo "check: the broker encodes each entry into bytes its topic's current ledger owns; a producer carves none" >&2
	exit 1
fi
echo "== a ledger owns its entry bytes: the broker's arena and the 32 B entry slot are gone"
if grep -rnwE 'entryBuf|entryChunkSize' --include='*.go' --exclude='*_test.go' internal/pulsar/ ||
	grep -rnw 'entrySlot' --include='*.go' --exclude='*_test.go' internal/ledger/; then
	echo "check: a ledger copies each entry into its own entry log and finds it through an 8 B index record; the broker carves no entry bytes" >&2
	exit 1
fi
echo "== a producer batches in one buffer of MaxBatch slots, not a recycled batch per partition"
if grep -rnE 'topicBatch|takeBatchLocked|recycleBatchLocked' --include='*.go' internal/pulsar/; then
	echo "check: SendAsync queues every partition's messages in one arrival-ordered buffer; per-partition batches and their free list are gone" >&2
	exit 1
fi
echo "== one fleet model: placement grows the fleet, so no cold start waits for capacity"
if grep -rnE 'placeRetryInterval|placeWithBudget|ColdStartBudget|ErrColdStartTimeout|PlaceFails' --include='*.go' --exclude='*_test.go' internal/ cmd/; then
	echo "check: a failed placement throttles at once; the cold-start budget, its poll and place pressure are gone" >&2
	exit 1
fi
echo "== one retry contract: faas's loop and class table; orchestrate keeps no retry loop or trace log of its own"
if grep -rnE 'RetryPolicy struct|ExecuteTraced' internal/orchestrate/ ||
	grep -rn 'func retryable(' internal/faas/ ||
	grep -nE 'RetryAfter +bool' internal/gateway/status.go ||
	grep -rnw 'PercentileOK' --include='*.go' internal/ cmd/ examples/ ./*.go; then
	echo "check: faas.ClassOf is the one retry classification and InvokeWithRetry the one loop; a step retries through it and its spans are its record" >&2
	exit 1
fi
echo "== one fan-out: every batch of invocations goes through faas.Drive"
if grep -rn 'InvokeAsyncFor(' --include='*.go' --exclude='*_test.go' internal/matmul/ internal/bioseq/ internal/graph/ internal/mlserve/ internal/video/ internal/experiments/ cmd/ ||
	grep -rn 'func (r \*DriveReport) Results' --include='*.go' internal/faas/; then
	echo "check: a batch of invocations is one faas.Drive, whose Wait returns every call's result and error in call order; no hand-rolled group, mutex or first-error loop" >&2
	exit 1
fi
echo "== a Client on a plain *http.Transport speaks HTTP/1.1 itself: its own path builds no *http.Response and calls no RoundTripper"
if grep -nE 'http\.Response\b|http\.ReadResponse\(|\.RoundTrip\(' internal/gateway/wire.go | grep -vE '^[0-9]+:\s*//'; then
	echo "check: wire.go writes each request head itself and reads back only the status, body, X-Taureau-Result and Location (readResponse)" >&2
	exit 1
fi
echo "== an async invocation answers on the sync wire: no JSON in its submit or poll"
if grep -rnF -e 'json.Unmarshal(body, &st)' -e 'writeJSON(w, http.StatusAccepted' -e 'writeJSON(w, http.StatusOK, st)' \
	--include='*.go' --exclude='*_test.go' internal/gateway/; then
	echo "check: a submit is an empty 202 with Location, and a poll answers what the sync invoke would have; neither encodes nor decodes JSON" >&2
	exit 1
fi
echo "== Pulsar is the one queue: a push consumer's retry contract, no second queue or retry loop"
if [ -e internal/queue ] ||
	grep -rnwE 'BindQueue|replRetries|replRetryBase' --include='*.go' --exclude='*_test.go' .; then
	echo "check: a failed message comes back through Consumer.deliver (redeliverDelay, maxDeliveries, then <topic>-<sub>-DLQ); internal/queue, faas.BindQueue and the replicator's retry loop are gone" >&2
	exit 1
fi
echo "== a gateway Client picks its path by observation: no environment variable reaches internal/gateway"
if grep -rnE 'os\.(Getenv|LookupEnv)' --include='*.go' --exclude='*_test.go' internal/gateway/; then
	echo "check: which path a Client takes follows from its RoundTripper and BaseURL alone; internal/gateway reads no environment variable" >&2
	exit 1
fi
echo "== every knob has a setter: the circuit breaker and predictive prewarm no program armed are gone"
if grep -rnwE 'BreakerThreshold|BreakerCooldown|ErrCircuitOpen|ErrBreakerOpen|breaker_open|PredictivePrewarm' --include='*.go' --exclude='*_test.go' .; then
	echo "check: a function's concurrency cap and its tenant's bucket are the only sheds; a knob no program sets goes (TestEveryKnobHasASetter)" >&2
	exit 1
fi
echo "== each claim's shape is stated once, beside its check: no Python generator, no per-experiment test"
if find . -name '*.py' -not -path './.git/*' | grep . ||
	grep -rnE '^func TestE[0-9]' internal/experiments/; then
	echo "check: EXPERIMENTS.md is TestExperiments' golden file (go test ./internal/experiments -run TestExperiments -update); a shape and its check are one entry of its table" >&2
	exit 1
fi
echo "== one binary: cmd/ holds a single package"
[ "$(go list ./cmd/... | wc -l)" -eq 1 ] || { echo "check: cmd/ must hold exactly one package (taureau)" >&2; exit 1; }
echo "== API.md lists the exported surface"
if ! diff <(scripts/api.sh) API.md; then
	echo "check: exported surface changed: run scripts/api.sh > API.md" >&2
	exit 1
fi
echo "== go test -race ./..."
go test -race ./...
echo "tier-1 gate OK"
