package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSON holds the repo-root BENCHMARK.json to the tables the
// program runs from, and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var spec struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, but the op counts are sized for %d", spec.RunSeconds, nominalSeconds)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\ntable %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	var names []string
	for i, w := range workloads() {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json and workloads() disagree on %s", i, w.Name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("%s: why is %d characters; the contract allows one line of 200", w.Name, len(w.Why))
		}
		names = append(names, w.Name)
	}
	if len(spec.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(names))
	}

	// Contract limits on names, units, bounds and counts.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names = append(names, d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads()) < 2 || len(workloads()) > 8 {
		t.Errorf("setup_s present %v; %d end-to-end, %d per-layer, %d workloads", hasSetup, len(endToEnd), len(perLayer), len(workloads()))
	}
}
