package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parseLastLine(t *testing.T, stdout string) lastLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var l lastLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("last line of stdout is not the summary object: %v\n%s", err, lines[len(lines)-1])
	}
	return l
}

// TestCheckRun is the smoke run tier-1 pays for: every workload, untraced
// and traced, plus the ladder, at 1/50 size, with every output check on.
func TestCheckRun(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-check", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	last := parseLastLine(t, stdout.String())
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("summary = correct %v, attempted %d, failed %d", last.Correct, last.Attempted, last.Failed)
	}
	for _, w := range workloads() {
		for _, d := range endToEnd {
			m, ok := last.Metrics[w.Name+"/"+d.Name]
			if !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s %s = %+v (present %v); want a positive value in %s", w.Name, d.Name, m, ok, d.Unit)
			}
		}
	}

	res, err := loadResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.Clients < 1 || res.Meta.GoVersion == "" || res.Meta.TimerOvershootUs <= 0 || !res.Meta.Traced {
		t.Errorf("meta block incomplete: %+v", res.Meta)
	}
	for _, w := range workloads() {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("result.json has no %s", w.Name)
		}
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace sample written: %v", w.Name, err)
		}
	}
	layer := func(workload, metric string) float64 { return res.Workloads[workload].PerLayer[metric].Value }
	if got := layer("gw-mixed", "faas.dedup_hit_ratio"); got != 0.1 {
		t.Errorf("gw-mixed dedup hit ratio = %g, want exactly 0.1", got)
	}
	if got := layer("sim-sebs", "sebs.digest_mismatches"); got != 0 {
		t.Errorf("sim-sebs digest mismatches = %g", got)
	}
	for _, m := range []string{"gateway.client.self_us", "gateway.transport.self_us", "gateway.server.self_us", "faas.handler.self_us", "gateway.requests"} {
		if layer("gw-echo", m) <= 0 {
			t.Errorf("gw-echo traced round recorded no %s", m)
		}
	}
	for _, m := range []string{"pulsar.send_sync.self_us", "pulsar.send_batch.self_us", "pulsar.receive.wait_us", "pulsar.ack.self_us", "pulsar.ack_ns", "ledger.append_ns"} {
		if layer("stream-paced", m) <= 0 {
			t.Errorf("stream-paced: no %s", m)
		}
	}
	if layer("faas-direct", "gateway.requests") != 0 {
		t.Error("faas-direct went through the gateway")
	}

	// A result agrees with itself, and the single-workload summary carries
	// exactly the metric set BENCHMARK.json names for the mode.
	stdout.Reset()
	self := filepath.Join(dir, "result.json")
	if code := run([]string{"-compare", self, self}, &stdout, &stderr); code != 0 || strings.Contains(stdout.String(), verdictWorse) {
		t.Errorf("-compare of a result with itself exited %d:\n%s", code, stdout.String())
	}
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		one := &result{Meta: res.Meta, Workloads: map[string]*workloadResult{"gw-echo": res.Workloads["gw-echo"]}}
		stdout.Reset()
		one.print(&stdout, options{trace: trace})
		got := parseLastLine(t, stdout.String()).Metrics
		if len(got) != len(defs) {
			t.Errorf("-trace %d summary has %d metrics, want %d", trace, len(got), len(defs))
		}
		for _, d := range defs {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("-trace %d summary: %s = %+v (present %v)", trace, d.Name, m, ok)
			}
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	mk := func(p50, allocs []float64) *result {
		e2e, layer := map[string]metricValue{}, map[string]metricValue{}
		for _, d := range endToEnd {
			e2e[d.Name] = metricValue{Value: 1, Unit: d.Unit, Rounds: []float64{1, 1, 1}}
		}
		for _, d := range timings {
			layer[d.Name] = metricValue{Value: 1, Unit: d.Unit, Rounds: []float64{1, 1, 1}}
		}
		layer["driver.op_p50_us"] = metricValue{Value: median(p50), Unit: "us", Rounds: p50}
		e2e["allocs_per_op"] = metricValue{Value: median(allocs), Unit: "allocs", Rounds: allocs}
		return &result{Workloads: map[string]*workloadResult{"gw-echo": {Correct: true, EndToEnd: e2e, PerLayer: layer}}}
	}
	dir := t.TempDir()
	write := func(name string, r *result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk([]float64{50, 51, 49}, []float64{124, 124, 124}))
	slower := write("slower.json", mk([]float64{70, 71, 69}, []float64{124, 124, 124}))
	noisy := write("noisy.json", mk([]float64{30, 60, 90}, []float64{110, 110, 110}))

	var out, errb bytes.Buffer
	if code := run([]string{"-compare", base, slower}, &out, &errb); code != 1 {
		t.Errorf("a 40%% slower p50 exited %d, want 1:\n%s", code, out.String())
	}
	if !regexp.MustCompile(`gw-echo\s+driver.op_p50_us.*worse`).MatchString(out.String()) {
		t.Errorf("no worse row for op_p50_us:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, noisy}, &out, &errb); code != 0 {
		t.Errorf("an unresolved metric and a better one exited %d, want 0:\n%s", code, out.String())
	}
	if !regexp.MustCompile(`op_p50_us.*unresolved`).MatchString(out.String()) || !regexp.MustCompile(`allocs_per_op.*better`).MatchString(out.String()) {
		t.Errorf("want op_p50_us unresolved and allocs_per_op better:\n%s", out.String())
	}
	if code := run([]string{"-compare", base}, &out, &errb); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}
