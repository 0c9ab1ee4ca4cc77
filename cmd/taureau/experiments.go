package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
)

// cmdExperiments regenerates the experiment tables (DESIGN.md §2,
// EXPERIMENTS.md), each on a fresh deterministic virtual-clock platform.
func cmdExperiments(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("taureau experiments", flag.ContinueOnError)
	id := fs.String("e", "", "run a single experiment by ID (e.g. E4); default all")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	run := experiments.All()
	if *id != "" {
		e, ok := experiments.ByID(*id)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; see taureau experiments -list\n", *id)
			return errUsage
		}
		run = []experiments.Experiment{e}
	}
	for _, e := range run {
		start := time.Now()
		fmt.Fprint(stdout, e.Run())
		fmt.Fprintf(stdout, "(%s took %v real)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
