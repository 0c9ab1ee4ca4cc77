package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare is the bound check between two result.json files of the same
// benchmark: one row per workload × end-to-end metric or timing with both
// medians, both inter-quartile ranges over rounds, the metric's bound and a
// verdict. It returns 1 if any row is worse, so a script can gate on it.
func compare(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := loadResult(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cand, err := loadResult(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(base, cand, stdout)
}

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareResults(base, cand *result, stdout io.Writer) int {
	if b, c := base.Meta, cand.Meta; b.NumCPU != c.NumCPU || b.GOMAXPROCS != c.GOMAXPROCS || b.Clients != c.Clients || b.Scale != c.Scale {
		fmt.Fprintf(stdout, "warning: not comparable: nproc/GOMAXPROCS/clients/scale are %d/%d/%d/%g vs %d/%d/%d/%g\n",
			b.NumCPU, b.GOMAXPROCS, b.Clients, b.Scale, c.NumCPU, c.GOMAXPROCS, c.Clients, c.Scale)
	}
	fmt.Fprintf(stdout, "%-13s %-20s %14s %10s %14s %10s %7s  %s\n", "workload", "metric", "base", "iqr", "candidate", "iqr", "bound", "verdict")
	worse := 0
	for _, w := range workloads() {
		bw, cw := base.Workloads[w.Name], cand.Workloads[w.Name]
		if bw == nil || cw == nil {
			continue
		}
		for i, d := range append(append([]metricDef{}, endToEnd...), timings...) {
			bm, cm := bw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			if i >= len(endToEnd) {
				bm, cm = bw.PerLayer[d.Name], cw.PerLayer[d.Name]
			}
			bq1, bq3 := quartiles(bm.Rounds)
			cq1, cq3 := quartiles(cm.Rounds)
			v := judge(bm.Value, cm.Value, spread(bm.Rounds), spread(cm.Rounds), d.Better == higher, d.Bound)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(stdout, "%-13s %-20s %14.4f %10.4f %14.4f %10.4f %6.1f%%  %s\n",
				w.Name, d.Name, bm.Value, bq3-bq1, cm.Value, cq3-cq1, d.Bound*100, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
