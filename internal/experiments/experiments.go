// Package experiments operationalizes the paper's qualitative claims as
// measurable experiments (E1-E27; see DESIGN.md §2 for the index).
// Le Taureau is a vision/tutorial paper with no evaluation tables of its
// own, so each experiment here turns one claim from the text into a
// reproducible table of the workload, the treatment and the baseline
// systems. `taureau experiments` prints the tables. Each table's expected
// shape is stated once, beside its check, in TestExperiments, which writes
// EXPERIMENTS.md: go test ./internal/experiments -run TestExperiments -update.
//
// Every experiment runs on a fresh virtual-clock platform, so results are
// deterministic and a full sweep takes seconds of real time.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's result in paper style.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement under test (with section)
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders the table fixed-width.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func() Table
}

// All returns every experiment, in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "cost-efficiency", E1CostEfficiency},
		{"E2", "elasticity", E2Elasticity},
		{"E3", "cold-start", E3ColdStart},
		{"E4", "ephemeral-state", E4EphemeralState},
		{"E5", "isolation", E5Isolation},
		{"E6", "pulsar-sketch", E6PulsarSketch},
		{"E7", "orchestration", E7Orchestration},
		{"E8", "training", E8Training},
		{"E9", "stragglers", E9Stragglers},
		{"E10", "matmul", E10Matmul},
		{"E11", "multiplexing", E11Multiplexing},
		{"E12", "bin-packing", E12BinPacking},
		{"E13", "video", E13Video},
		{"E14", "seq-compare", E14SeqCompare},
		{"E15", "pulsar-durability", E15PulsarDurability},
		{"E16", "hyperparam", E16Hyperparam},
		{"E17", "inference", E17Inference},
		{"E18", "leases", E18Leases},
		{"E19", "security-coresidency", E19Security},
		{"E20", "sla-tail-latency", E20SLA},
		{"E21", "tiered-storage", E21TieredStorage},
		{"E22", "provisioned-concurrency", E22Provisioned},
		{"E23", "oram-overhead", E23ORAM},
		{"E24", "isolation-tech", E24IsolationTech},
		{"E25", "evolution-ladder", E25Evolution},
		{"E26", "chaos-recovery", E26ChaosRecovery},
		{"E27", "elastic-control-plane", E27Elastic},
	}
	sort.SliceStable(exps, func(i, j int) bool { return idNum(exps[i].ID) < idNum(exps[j].ID) })
	return exps
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func idNum(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }
