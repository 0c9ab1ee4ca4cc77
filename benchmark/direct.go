package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/sebs"
	gen "repro/internal/workload"
)

// directBatch is how many consecutive invokes one latency sample covers: a
// single ≈1 µs invoke is too close to the cost of reading the clock twice.
const directBatch = 64

const (
	directOps   = 600_000 // per round at the nominal -seconds
	directChunk = 125     // latency samples (of directBatch ops) one throughput sample covers
)

// faasDirectRound is the closed-loop workload with no gateway: one
// goroutine calling the public tenant handle.
func faasDirectRound(e env) (roundResult, error) {
	r := roundResult{layer: map[string]float64{}}
	t0 := time.Now()
	n := e.size(directOps, directBatch)
	p := core.New(core.Options{})
	tenant := p.Tenant(benchTenant)
	// Traced, the handler span covers the first op of each batch only: a
	// span per op would double the op's cost.
	if err := tenant.Register("echo", echoHandler(e.tr, directBatch), minimalLatency(faas.Config{})); err != nil {
		return r, err
	}
	payload := gen.Payload(64, e.roundSeed())
	invoke := func(op uint64) bool {
		stamp(payload, op)
		res, err := tenant.Invoke("echo", payload)
		return err == nil && bytes.Equal(res.Output, payload)
	}
	warm := 0
	for w0 := time.Now(); time.Since(w0) < warmupFor; warm += directBatch {
		for k := 0; k < directBatch; k++ {
			if !invoke(1) {
				return r, fmt.Errorf("faas-direct: warm-up op %d failed", warm+k)
			}
		}
	}
	r.lat = make([]float64, n/directBatch)
	e.tr.start()
	m := r.begin(t0)
	failed := 0
	for s := range r.lat {
		start := time.Now()
		for k := 0; k < directBatch; k++ {
			if !invoke(uint64(s*directBatch + k)) {
				failed++
			}
		}
		r.lat[s] = float64(time.Since(start)) / directBatch
	}
	r.end(m)
	for s := 0; s+directChunk <= len(r.lat); s += directChunk {
		ns := 0.0
		for _, l := range r.lat[s : s+directChunk] {
			ns += l * directBatch
		}
		r.chunkRates = append(r.chunkRates, directChunk*directBatch/(ns/1e9))
	}
	r.loopClients = 1
	r.attempted = n
	if failed > 0 {
		r.fail(failed, "%d invokes errored or returned the wrong bytes", failed)
	}
	reconcileFaaS(&r, p, int64(warm+n))
	return r, nil
}

// sebsCalls is how many sebs.Run calls a round times, sebsPerApp the
// requests each of the suite's 4 apps gets in a call, and sebsRequests the
// simulated requests — the ops — in a call.
const (
	sebsCalls    = 8
	sebsPerApp   = 2
	sebsRequests = 4 * sebsPerApp
)

// simSebsRounds returns the virtual-clock workload: the SeBS-style suite run
// through a real gateway on simclock.Virtual. The first report any round
// sees is the reference; every later one must be byte-identical, which is
// the repo's determinism claim. The seed is unused: the suite takes none.
func simSebsRounds() func(env) (roundResult, error) {
	var reference []byte
	run := func(perApp int) (ok bool, why string) {
		rep, err := sebs.Run(sebs.Config{Requests: perApp})
		if err != nil {
			return false, err.Error()
		}
		for _, app := range rep.Apps {
			if app.Errors > 0 {
				return false, fmt.Sprintf("app %s: %d errors", app.App, app.Errors)
			}
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return false, err.Error()
		}
		if perApp != sebsPerApp {
			return true, "" // the warm-up pass has a report of its own shape
		}
		if reference == nil {
			reference = b
		}
		if !bytes.Equal(b, reference) {
			return false, "report differs from the first report"
		}
		return true, ""
	}
	return func(e env) (roundResult, error) {
		r := roundResult{layer: map[string]float64{}}
		t0 := time.Now()
		// Set-up is the cheapest full pass: platform build, gateway,
		// four registrations and one (cold) request per app.
		if ok, why := run(1); !ok {
			return r, fmt.Errorf("sim-sebs: warm-up run: %s", why)
		}
		calls := e.size(sebsCalls, 1)
		r.lat = make([]float64, calls)
		mismatches := 0
		m := r.begin(t0)
		for i := range r.lat {
			start := time.Now()
			ok, why := run(sebsPerApp)
			wall := time.Since(start)
			r.lat[i] = float64(wall) / sebsRequests
			r.chunkRates = append(r.chunkRates, sebsRequests/wall.Seconds())
			if !ok {
				mismatches++
				r.fail(sebsRequests, "call %d: %s", i, why)
			}
		}
		r.end(m)
		r.loopClients = 1
		r.attempted = calls * sebsRequests
		r.layer["sebs.run_wall_ms"] = median(r.lat) * sebsRequests / 1e6
		r.layer["sebs.digest_mismatches"] = float64(mismatches)
		r.layer["simclock.idle_ratio"] = 1 - float64(r.cpu)/float64(r.wall)
		return r, nil
	}
}
