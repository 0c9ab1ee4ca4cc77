package graph

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/simclock"
)

// VertexProgram defines one vertex-centric computation (the Pregel model
// [142]). Compute receives the vertex's current value and incoming messages,
// returns the new value and outgoing messages, and votes to halt by
// returning active=false. A halted vertex is reactivated by any incoming
// message.
type VertexProgram struct {
	// Init gives vertex v's initial value.
	Init func(v int, g *Graph) float64
	// Compute runs once per active vertex per superstep.
	Compute func(v int, g *Graph, value float64, msgs []float64, step int) (newValue float64, outgoing []Message, active bool)
}

// Message is one value sent to a destination vertex for the next superstep.
type Message struct {
	To    int     `json:"to"`
	Value float64 `json:"value"`
}

// EngineConfig parameterizes a Pregel run.
type EngineConfig struct {
	// Workers is the partition count; each superstep runs one FaaS
	// invocation per partition. Default 4.
	Workers int
	// MaxSupersteps bounds the run. Default 50.
	MaxSupersteps int
	// Tenant owns the worker function. Default "graph".
	Tenant string
	// WorkPerVertex models compute time per vertex visit.
	WorkPerVertex time.Duration
	// Worker overrides the function config.
	Worker faas.Config
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 50
	}
	if c.Tenant == "" {
		c.Tenant = "graph"
	}
	if c.Worker.ColdStart == 0 {
		c.Worker.ColdStart = time.Millisecond
	}
	if c.Worker.MaxRetries == 0 {
		c.Worker.MaxRetries = -1
	}
	if c.Worker.Timeout == 0 {
		c.Worker.Timeout = 5 * time.Minute
	}
	return c
}

// RunStats reports a completed Pregel run.
type RunStats struct {
	Supersteps   int
	MessagesSent int64
}

// Run executes a vertex program over g on the platform, with vertex values
// and inter-partition messages exchanged through the Jiffy namespace ns. It
// returns the final vertex values.
func Run(p *faas.Platform, ns *jiffy.Namespace, g *Graph, prog VertexProgram, cfg EngineConfig) ([]float64, RunStats, error) {
	cfg = cfg.withDefaults()
	W := cfg.Workers
	if W > g.N {
		W = g.N
	}
	part := func(v int) int { return v % W }

	// Initialise vertex values in ephemeral storage, one record per
	// partition.
	values := make([]float64, g.N)
	active := make([]bool, g.N)
	for v := 0; v < g.N; v++ {
		values[v] = prog.Init(v, g)
		active[v] = true
	}
	if err := putPartitionState(ns, values, active, part, W); err != nil {
		return nil, RunStats{}, err
	}

	fnName := fmt.Sprintf("pregel-%s", ns.Path()[1:])
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct {
			Partition int `json:"partition"`
			Step      int `json:"step"`
		}
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		st, err := getPartitionState(ns, in.Partition)
		if err != nil {
			return nil, err
		}
		// Gather inbound messages from every partition, freeing each
		// batch once consumed (ephemeral state discipline).
		inbox := map[int][]float64{}
		for src := 0; src < W; src++ {
			key := msgKey(in.Step, src, in.Partition)
			raw, err := ns.Get(key)
			if err != nil {
				continue // no messages from src
			}
			ms, err := unmarshalMessages(raw)
			if err != nil {
				return nil, err
			}
			_ = ns.Delete(key)
			for _, m := range ms {
				inbox[m.To] = append(inbox[m.To], m.Value)
			}
		}
		// Compute active vertices (message receipt reactivates).
		outByPart := make([][]Message, W)
		visited := 0
		anyActive := false
		for i, v := range st.Vertices {
			msgs := inbox[v]
			if !st.Active[i] && len(msgs) == 0 {
				continue
			}
			visited++
			newVal, outgoing, stillActive := prog.Compute(v, g, st.Values[i], msgs, in.Step)
			st.Values[i] = newVal
			st.Active[i] = stillActive
			if stillActive {
				anyActive = true
			}
			for _, m := range outgoing {
				outByPart[part(m.To)] = append(outByPart[part(m.To)], m)
			}
		}
		ctx.Work(time.Duration(visited) * cfg.WorkPerVertex)
		sent := int64(0)
		for dst, ms := range outByPart {
			if len(ms) == 0 {
				continue
			}
			if err := ns.Put(msgKey(in.Step+1, in.Partition, dst), marshalMessages(ms)); err != nil {
				return nil, err
			}
			sent += int64(len(ms))
		}
		if err := putOnePartition(ns, in.Partition, st); err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Sent   int64 `json:"sent"`
			Active bool  `json:"active"`
		}{sent, anyActive})
	}
	if err := p.Register(fnName, cfg.Tenant, worker, cfg.Worker); err != nil {
		return nil, RunStats{}, err
	}
	defer p.UnregisterFor(cfg.Tenant, fnName)

	stats := RunStats{}
	for step := 0; step < cfg.MaxSupersteps; step++ {
		wg := simclock.NewGroup(p.Clock())
		var mu sync.Mutex
		var firstErr error
		stepSent := int64(0)
		stepActive := false
		for q := 0; q < W; q++ {
			payload, _ := json.Marshal(struct {
				Partition int `json:"partition"`
				Step      int `json:"step"`
			}{q, step})
			wg.Add(1)
			p.InvokeAsyncFor(cfg.Tenant, fnName, payload, func(res faas.Result, err error) {
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				} else if err == nil {
					var out struct {
						Sent   int64 `json:"sent"`
						Active bool  `json:"active"`
					}
					if json.Unmarshal(res.Output, &out) == nil {
						stepSent += out.Sent
						stepActive = stepActive || out.Active
					}
				}
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
		if firstErr != nil {
			return nil, stats, firstErr
		}
		stats.Supersteps++
		stats.MessagesSent += stepSent
		if stepSent == 0 && !stepActive {
			break // global vote to halt
		}
	}

	// Collect final values.
	out := make([]float64, g.N)
	for q := 0; q < W; q++ {
		st, err := getPartitionState(ns, q)
		if err != nil {
			return nil, stats, err
		}
		for i, v := range st.Vertices {
			out[v] = st.Values[i]
		}
	}
	return out, stats, nil
}

type partState struct {
	Vertices []int
	Values   []float64
	Active   []bool
}

// wireState is partState's serialized form. Values travel as IEEE-754 bits
// because encoding/json rejects ±Inf — and SSSP's unreached distances are
// exactly +Inf.
type wireState struct {
	Vertices  []int    `json:"vertices"`
	ValueBits []uint64 `json:"value_bits"`
	Active    []bool   `json:"active"`
}

func (st partState) marshal() []byte {
	w := wireState{Vertices: st.Vertices, Active: st.Active, ValueBits: make([]uint64, len(st.Values))}
	for i, v := range st.Values {
		w.ValueBits[i] = math.Float64bits(v)
	}
	raw, _ := json.Marshal(w)
	return raw
}

func unmarshalState(raw []byte) (partState, error) {
	var w wireState
	if err := json.Unmarshal(raw, &w); err != nil {
		return partState{}, err
	}
	st := partState{Vertices: w.Vertices, Active: w.Active, Values: make([]float64, len(w.ValueBits))}
	for i, b := range w.ValueBits {
		st.Values[i] = math.Float64frombits(b)
	}
	return st, nil
}

func putPartitionState(ns *jiffy.Namespace, values []float64, active []bool, part func(int) int, w int) error {
	states := make([]partState, w)
	for v := range values {
		q := part(v)
		states[q].Vertices = append(states[q].Vertices, v)
		states[q].Values = append(states[q].Values, values[v])
		states[q].Active = append(states[q].Active, active[v])
	}
	for q := range states {
		if err := putOnePartition(ns, q, states[q]); err != nil {
			return err
		}
	}
	return nil
}

func putOnePartition(ns *jiffy.Namespace, q int, st partState) error {
	return ns.Put(fmt.Sprintf("state/%d", q), st.marshal())
}

func getPartitionState(ns *jiffy.Namespace, q int) (partState, error) {
	raw, err := ns.Get(fmt.Sprintf("state/%d", q))
	if err != nil {
		return partState{}, err
	}
	return unmarshalState(raw)
}

func msgKey(step, src, dst int) string {
	return fmt.Sprintf("msgs/%d/%d/%d", step, src, dst)
}

// wireMsgs carries message values as IEEE-754 bits (json rejects ±Inf).
type wireMsgs struct {
	To   []int    `json:"to"`
	Bits []uint64 `json:"bits"`
}

func marshalMessages(ms []Message) []byte {
	w := wireMsgs{To: make([]int, len(ms)), Bits: make([]uint64, len(ms))}
	for i, m := range ms {
		w.To[i] = m.To
		w.Bits[i] = math.Float64bits(m.Value)
	}
	raw, _ := json.Marshal(w)
	return raw
}

func unmarshalMessages(raw []byte) ([]Message, error) {
	var w wireMsgs
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, err
	}
	ms := make([]Message, len(w.To))
	for i := range ms {
		ms[i] = Message{To: w.To[i], Value: math.Float64frombits(w.Bits[i])}
	}
	return ms, nil
}
