package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/sebs"
)

// cmdSebs executes the SeBS-style end-to-end suite — every app driven
// through the real HTTP gateway on the virtual clock — and prints the JSON
// report to stdout.
func cmdSebs(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("taureau sebs", flag.ContinueOnError)
	requests := fs.Int("requests", 0, "requests per app (0 = default 40)")
	apps := fs.String("apps", "", "comma-separated app subset (default all)")
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	cfg := sebs.Config{Requests: *requests}
	if *apps != "" {
		for _, name := range strings.Split(*apps, ",") {
			cfg.Apps = append(cfg.Apps, strings.TrimSpace(name))
		}
	}
	rep, err := sebs.Run(cfg)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}
