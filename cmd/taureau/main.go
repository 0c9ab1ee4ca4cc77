// Command taureau is the platform's one binary: every runtime surface of the
// repository is a subcommand of it, and each subcommand owns its flags.
//
//	taureau demo <name> [flags]    run a demo scenario on a virtual-clock platform
//	taureau gateway [flags]        serve the v1 REST API + telemetry on the real clock
//	taureau sebs [flags]           SeBS-style suite through the HTTP gateway, JSON report
//	taureau conform [flags]        execution-semantics conformance explorer
//	taureau experiments [flags]    regenerate the experiment tables E1–E27 (EXPERIMENTS.md)
//
// demo boots a full in-process deployment (FaaS + BaaS + Pulsar + Jiffy +
// orchestration), runs the named scenario, and prints what happened and what
// it cost:
//
//	taureau demo -list             # invoke pipeline stream state oram burst rebalance
//	taureau demo invoke            # deploy + invoke a function, show the bill
//	taureau demo pipeline          # blob-triggered orchestrated ETL
//	taureau demo stream            # Count-Min as a Pulsar function (Fig. 3)
//	taureau demo state             # Jiffy namespaces, scaling, leases
//	taureau demo oram              # Path ORAM access-pattern hiding (§6)
//	taureau demo burst             # autoscaler under a 10× open-loop burst (§4.1)
//	taureau demo rebalance         # broker load manager spreading hot partitions
//
//	taureau demo invoke -metrics                   # metrics dump after the demo
//	taureau demo stream -metrics -format prom      # … as Prometheus text (or json)
//	taureau demo pipeline -trace                   # trace spans as a JSON list
//	taureau demo pipeline -trace -trace-top 5      # 5 slowest traces as span trees
//	taureau demo invoke -trace -trace-tenant demo  # one tenant's traces only
//	taureau demo burst -slo                        # per-tenant SLO burn-rate report
//	taureau demo burst -serve :9090                # then serve /metrics, /trace, /slo, pprof,
//	                                               # /autoscale and /brokers until killed
//	taureau demo stream -chaos 42                  # run under seeded fault injection
//
// The others:
//
//	taureau gateway -addr :8080 -tokens dev-token=dev,other=acme
//	taureau sebs -requests 10 -apps webapp,video
//	taureau conform -full          # 300 schedules per workload instead of 60
//	taureau experiments -list      # experiment index
//	taureau experiments -e E6      # one experiment; no -e runs all 27
//
// A command-line mistake prints usage to stderr and exits 2; a failed run
// exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// errUsage marks a command-line mistake whose explanation has already been
// written to stderr.
var errUsage = errors.New("usage")

type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"demo", "<name> [flags]: run a demo scenario (demo -list names them)", cmdDemo},
	{"gateway", "[flags]: serve the v1 REST API + telemetry until killed", cmdGateway},
	{"sebs", "[flags]: run the SeBS-style suite, print the JSON report", cmdSebs},
	{"conform", "[flags]: run the conformance explorer over the reference workloads", cmdConform},
	{"experiments", "[flags]: regenerate the experiment tables E1–E27", cmdExperiments},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			switch err := c.run(args[1:], stdout, stderr); {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			default:
				fmt.Fprintln(stderr, "taureau:", err)
				return 1
			}
		}
		fmt.Fprintf(stderr, "taureau: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: taureau <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  taureau %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "each subcommand lists its flags with -h")
	return 2
}

// parseFlags parses a subcommand's arguments, which must all be flags. The
// flag package has already reported any mistake to stderr.
func parseFlags(fs *flag.FlagSet, stderr io.Writer, args []string) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return errUsage
	}
	return nil
}
