package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"

	"repro/internal/conform"
)

// cmdConform explores every reference workload with the deterministic
// interleaving explorer and reports each verdict against its locked
// expectation. A divergent workload prints its minimal witness schedule as
// JSON — rerunning that schedule reproduces its digest — and a verdict that
// contradicts the reference expectation fails the process.
func cmdConform(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("taureau conform", flag.ContinueOnError)
	full := fs.Bool("full", false, "explore 300 schedules per workload instead of the quick 60")
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	opts := conform.Options{MaxSchedules: 60, Parallelism: 4}
	if *full {
		opts.MaxSchedules = 300
	}
	fmt.Fprintf(stdout, "execution-semantics conformance (budget %d schedules/workload)\n\n", opts.MaxSchedules)
	failed := false
	for _, ref := range conform.References() {
		rep, err := conform.Explore(ref.Workload, opts)
		if err != nil {
			fmt.Fprintf(stderr, "%-22s explorer error: %v\n", ref.Workload.Name, err)
			failed = true
			continue
		}
		verdict := "CONFORMANT"
		if !rep.Conformant {
			verdict = "DIVERGENT"
		}
		match := "ok"
		if rep.Conformant != ref.WantConformant {
			match = "UNEXPECTED"
			failed = true
		}
		fmt.Fprintf(stdout, "%-22s %-11s %s  (%d interleavings, %d effect points, billing-as-predicted=%v)\n",
			ref.Workload.Name, verdict, match, rep.Explored, rep.EffectPoints, rep.BillingOK)
		fmt.Fprintf(stdout, "%22s   %s\n", "", ref.Why)
		if rep.Witness != nil {
			w, err := json.Marshal(rep.Witness)
			if err == nil {
				fmt.Fprintf(stdout, "%22s   witness: %s\n", "", w)
			}
			fmt.Fprintf(stdout, "%22s   %s\n", "", rep.Witness.Diff)
		}
	}
	if failed {
		return errors.New("conformance verdicts diverged from the reference expectations")
	}
	fmt.Fprintln(stdout, "\nall reference verdicts match")
	return nil
}
