// Command benchmark is the repo's standing benchmark: five workloads over
// the assembled platform, measured end to end with the benchmark's spans
// off, and layer by layer — from outside, through the program's public
// seams — with -trace 1. See README.md for the metrics, the workloads and
// how they are expected to interact.
//
//	go run ./benchmark -workload all -seed 1        # end-to-end metrics
//	go run ./benchmark -workload gw-echo -trace 1   # per-layer metrics
//	go run ./benchmark -check                       # 1/50-size smoke run
//	go run ./benchmark -compare a.json b.json       # bound check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	// nominalSeconds is the -seconds at which the op counts in README.md
	// apply; other values scale the counts, never the method: a round is a
	// fixed amount of work, not a fixed duration.
	nominalSeconds = 15
	fullRounds     = 7
	checkScale     = 1.0 / 50
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	check    bool
	compare  bool
	out      string
}

func main() {
	// Paths below are relative to the repository root, and only there does
	// ./benchmark build against the program it measures.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root: go run ./benchmark")
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "measured seconds the op counts are sized for")
	fs.IntVar(&o.trace, "trace", 0, "1: benchmark-side spans on, report per-layer metrics and the ladder")
	fs.BoolVar(&o.check, "check", false, "smoke run: every workload, traced and untraced, at 1/50 size")
	fs.BoolVar(&o.compare, "compare", false, "compare two result.json files: -compare base.json candidate.json")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory result.json and trace samples are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare base.json candidate.json")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if o.check {
		o.workload = "all"
	}
	selected, err := findWorkloads(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res, err := measure(o, selected, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res.print(stdout, o)
	if err := res.write(o.out); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// metricValue is one reported number. Rounds holds the per-round values the
// reported one was reduced from, which is what -compare takes spreads of.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Overloaded bool                   `json:"overloaded"`
	FirstError string                 `json:"first_error,omitempty"`
	Ops        int                    `json:"ops_per_round"`
	TailPct    float64                `json:"tail_pct"` // the percentile driver.op_tail_us is
	TailOK     bool                   `json:"tail_ok"`  // false: fewer than ten samples lay beyond it
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

// meta makes a result from a different machine, toolchain or size visibly
// not comparable.
type meta struct {
	GoVersion        string  `json:"go_version"`
	GOOS             string  `json:"goos"`
	GOARCH           string  `json:"goarch"`
	NumCPU           int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Clients          int     `json:"clients"`
	Commit           string  `json:"git_commit"`
	Seed             int64   `json:"seed"`
	SeedNote         string  `json:"seed_note"`
	Seconds          int     `json:"seconds"`
	Scale            float64 `json:"scale"`
	Rounds           int     `json:"rounds"`
	Traced           bool    `json:"traced"`
	TimerOvershootUs float64 `json:"driver.timer_overshoot_us"`
	StealPct         float64 `json:"driver.steal_pct"`
}

type result struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct || w.Overloaded {
			return false
		}
	}
	return true
}

// timerOvershoot probes how late time.Sleep returns on this machine: the
// reason open-loop workloads release bursts on a coarse grid.
func timerOvershoot(n int) float64 {
	const nap = 200 * time.Microsecond
	over := make([]float64, n)
	for i := range over {
		t0 := time.Now()
		time.Sleep(nap)
		over[i] = float64(time.Since(t0)-nap) / 1e3
	}
	return median(over)
}

// cpuSteal reads the machine's cumulative stolen and total CPU ticks: time
// the hypervisor ran someone else while this guest wanted to run. It is the
// sandbox's largest noise source, so every result says how much it saw.
// Both are 0 where /proc/stat does not exist.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			total += v
			if i == 8 { // "cpu" user nice system idle iowait irq softirq steal
				steal = v
			}
		}
	}
	return steal, total
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// measure runs the selected workloads. Rounds are interleaved across
// workloads (w1r1, w2r1, … w1r2 …) so a slow stretch of the machine is
// shared, not charged to one workload. Traced runs alternate untraced and
// traced rounds so the two are compared under the same conditions.
func measure(o options, selected []*workload, progress io.Writer) (*result, error) {
	scale := float64(o.seconds) / nominalSeconds
	traced := make([]bool, fullRounds)
	probes := 300
	switch {
	case o.check:
		scale, traced, probes = checkScale, []bool{false, true}, 30
	case o.trace == 1:
		traced = []bool{false, true, false, true}
	}
	clients := min(2, runtime.NumCPU())
	steal0, total0 := cpuSteal()
	res := &result{
		Meta: meta{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
			Commit: gitCommit(), Seed: o.seed, SeedNote: "sim-sebs ignores the seed: the suite is deterministic",
			Seconds: o.seconds, Scale: scale, Rounds: len(traced), Traced: o.check || o.trace == 1,
			TimerOvershootUs: timerOvershoot(probes),
		},
		Workloads: map[string]*workloadResult{},
	}

	rounds := make(map[*workload][]roundResult)
	spans := make(map[*workload][]span) // the last traced round's, for the sample written out
	for round, withSpans := range traced {
		for _, w := range selected {
			e := env{seed: o.seed, round: round, scale: scale, clients: clients}
			if withSpans {
				e.tr = newTracer(int(float64(w.ops) * scale * 4))
			}
			runtime.GC() // the previous round's platform is garbage by now
			r, err := w.round(e)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.Name, round, err)
			}
			if withSpans {
				spans[w] = fileSpans(&r, e.tr)
			}
			r.reduce(w)
			rounds[w] = append(rounds[w], r)
			fmt.Fprintf(progress, "%s round %d/%d (traced=%v): %d ops in %.2fs after %.2fs set-up, %d failed\n",
				w.Name, round+1, len(traced), withSpans, r.attempted, r.wall.Seconds(), r.setup.Seconds(), r.failed)
		}
	}

	rungs := map[string]float64{} // layer metrics that are the same whatever the workload
	if res.Meta.Traced {
		var err error
		if rungs, err = ladder(scale); err != nil {
			return nil, err
		}
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		res.Meta.StealPct = (steal1 - steal0) / (total1 - total0) * 100
	}
	rungs["driver.timer_overshoot_us"] = res.Meta.TimerOvershootUs
	rungs["driver.steal_pct"] = res.Meta.StealPct
	for _, w := range selected {
		wr := aggregate(w, rounds[w], traced, o.check)
		if res.Meta.Traced {
			for name, v := range rungs {
				wr.PerLayer[name] = metricValue{Value: v, Unit: unitOf(name)}
			}
			for _, d := range perLayer { // a metric the workload does not exercise reads 0
				if _, ok := wr.PerLayer[d.Name]; !ok {
					wr.PerLayer[d.Name] = metricValue{Unit: d.Unit}
				}
			}
			if err := writeTraceSample(o.out, w.Name, spans[w]); err != nil {
				return nil, err
			}
		}
		res.Workloads[w.Name] = wr
	}
	return res, nil
}

// fileSpans reduces a traced round's spans to one layer metric per kind —
// the median self time in µs — and returns the resolved spans.
func fileSpans(r *roundResult, tr *tracer) []span {
	all := tr.resolve()
	for kind, self := range selfTimes(all) {
		if len(self) == 0 {
			continue
		}
		us := median(self) / 1e3
		if spanKind(kind) == kSendBatch {
			us /= streamBurst // one span covers a burst: report it per message
		}
		r.layer[spanMetric[kind]] = us
	}
	return all
}

// aggregate reduces a workload's rounds to its reported metrics. The
// end-to-end metrics and the timings come from untraced rounds only;
// failures are counted, and the other layer metrics taken, from every round.
func aggregate(w *workload, rounds []roundResult, traced []bool, check bool) *workloadResult {
	wr := &workloadResult{TailPct: w.tailPct, TailOK: true, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	per := map[string][]float64{} // end-to-end metric → one value per untraced round
	layer := map[string][]float64{}
	var pooled, late, tracedP50 []float64
	for i, r := range rounds {
		wr.Ops = r.attempted
		for name, v := range r.layer {
			layer[name] = append(layer[name], v)
		}
		late = append(late, r.late...)
		if w.tailPct > 0 {
			layer["driver.op_tail_us"] = append(layer["driver.op_tail_us"], r.tail/1e3)
			wr.TailOK = wr.TailOK && r.tailOK
		} else {
			pooled = append(pooled, r.lat...)
		}
		wr.Attempted += r.attempted
		wr.Failed += min(r.failed, r.attempted)
		if wr.FirstError == "" {
			wr.FirstError = r.firstErr
		}
		if traced[i] {
			tracedP50 = append(tracedP50, r.p50/1e3)
			continue
		}
		layer["driver.ops_per_s"] = append(layer["driver.ops_per_s"], r.rate)
		layer["driver.op_p50_us"] = append(layer["driver.op_p50_us"], r.p50/1e3)
		layer["driver.cpu_us_per_op"] = append(layer["driver.cpu_us_per_op"], float64(r.cpu)/1e3/float64(r.attempted))
		per["setup_s"] = append(per["setup_s"], r.setup.Seconds())
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(r.mallocs)/float64(r.attempted))
		per["alloc_bytes_per_op"] = append(per["alloc_bytes_per_op"], float64(r.allocated)/float64(r.attempted))
		per["live_heap_mb"] = append(per["live_heap_mb"], float64(r.heapEnd)/(1<<20))
		per["ok_ratio"] = append(per["ok_ratio"], float64(r.attempted-min(r.failed, r.attempted))/float64(r.attempted))
	}
	for _, d := range endToEnd {
		v := median(per[d.Name])
		switch d.Name {
		case "live_heap_mb": // what the platform holds at its fullest
			v = sortedCopy(per[d.Name])[len(per[d.Name])-1]
		case "ok_ratio":
			v = float64(wr.Attempted-wr.Failed) / float64(wr.Attempted)
		}
		wr.EndToEnd[d.Name] = metricValue{Value: v, Unit: d.Unit, Rounds: per[d.Name]}
	}
	for name, vs := range layer {
		wr.PerLayer[name] = metricValue{Value: median(vs), Unit: unitOf(name), Rounds: vs}
	}
	if w.tailPct == 0 {
		s := sortedCopy(pooled)
		wr.TailPct = highestPercentile(len(s))
		tail, ok := percentile(s, wr.TailPct)
		wr.TailOK = ok
		wr.PerLayer["driver.op_tail_us"] = metricValue{Value: tail / 1e3, Unit: "us"}
	}
	if len(late) > 0 {
		s := sortedCopy(late)
		p50, _ := percentile(s, 50)
		p99, _ := percentile(s, 99)
		wr.PerLayer["driver.late_p50_us"] = metricValue{Value: p50 / 1e3, Unit: "us"}
		wr.PerLayer["driver.late_p99_us"] = metricValue{Value: p99 / 1e3, Unit: "us"}
	}
	if base := wr.PerLayer["driver.op_p50_us"].Value; len(tracedP50) > 0 && base > 0 {
		wr.PerLayer["driver.trace_overhead_pct"] = metricValue{Value: (median(tracedP50) - base) / base * 100, Unit: "%", Rounds: tracedP50}
		if w.spanTree {
			// What is left of the traced op's median once every layer's
			// median self time is taken out says whether the spans add up.
			// It is taken against the traced rounds, so that it is not the
			// tracing overhead (above) under another name.
			op, sum := median(tracedP50), 0.0
			for _, kind := range []spanKind{kClient, kTransport, kServer, kHandler} {
				sum += wr.PerLayer[spanMetric[kind]].Value
			}
			wr.PerLayer["driver.span_residue_pct"] = metricValue{Value: (op - sum) / op * 100, Unit: "%"}
		}
	}

	wr.Correct = wr.Failed == 0
	if w.offered > 0 && !check { // a smoke run is too short to judge a backlog
		wr.Overloaded = wr.PerLayer["driver.ops_per_s"].Value < w.offered*minSustained
	}
	return wr
}

// print writes every metric by name with its unit, then — for a single
// workload — the one-line JSON summary the acceptance driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func (r *result) print(w io.Writer, o options) {
	var ran []string // in the order of workloads()
	for _, w := range workloads() {
		if r.Workloads[w.Name] != nil {
			ran = append(ran, w.Name)
		}
	}
	for _, name := range ran {
		wr := r.Workloads[name]
		status := "ok"
		if wr.Overloaded {
			status = "OVERLOADED (invalid: offered rate not sustained)"
		} else if !wr.Correct {
			status = "FAILED: " + wr.FirstError
		}
		fmt.Fprintf(w, "== %s: %d ops attempted, %d failed, %s\n", name, wr.Attempted, wr.Failed, status)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
		}
		layers := timings // every run measures these; the rest needs the traced rounds
		if r.Meta.Traced {
			layers = perLayer
		}
		for _, d := range layers {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
	}
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.correct(), Metrics: map[string]metricValue{}}
	for _, name := range ran {
		wr := r.Workloads[name]
		last.Attempted += wr.Attempted
		last.Failed += wr.Failed
		defs, from, prefix := endToEnd, wr.EndToEnd, ""
		if o.trace == 1 {
			defs, from = perLayer, wr.PerLayer
		}
		if len(ran) > 1 {
			prefix = name + "/"
		}
		for _, d := range defs {
			last.Metrics[prefix+d.Name] = metricValue{Value: from[d.Name].Value, Unit: d.Unit}
		}
	}
	line, _ := json.Marshal(last) // plain structs and floats: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

func (r *result) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}

// traceSampleSpans bounds trace-<workload>.json: the spans of the first ops
// of the last traced round, enough to read a request's tree by eye without
// writing tens of megabytes on every run.
const traceSampleSpans = 4000

func writeTraceSample(dir, workload string, spans []span) error {
	type spanJSON struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Op     uint64 `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
	}
	n := min(len(spans), traceSampleSpans)
	for n > 0 && n < len(spans) && spans[n].Op == spans[n-1].Op {
		n-- // do not cut an op in half
	}
	out := make([]spanJSON, n)
	for i, s := range spans[:n] {
		out[i] = spanJSON{ID: i, Name: kindNames[s.Kind], Op: s.Op, Start: s.Start, End: s.End, Parent: s.Parent}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(b, '\n'), 0o644)
}
