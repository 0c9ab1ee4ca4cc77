package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
)

// cmdGateway serves the v1 REST API (plus the telemetry endpoints) on a
// real-clock platform until SIGINT or SIGTERM, which drains the requests in
// flight before returning. Tokens arrive as
// "token=tenant,token=tenant"; the in-process executor exposes the builtin
// handlers (echo, work, fail), so the whole register→invoke→invoice loop is
// curl-able with no Go code.
func cmdGateway(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("taureau gateway", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	tokenSpec := fs.String("tokens", "dev-token=dev", "comma-separated bearer token=tenant pairs")
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	tokens := make(map[string]string)
	for _, pair := range strings.Split(*tokenSpec, ",") {
		tok, tenant, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || tok == "" || tenant == "" || strings.Contains(tenant, "/") {
			fmt.Fprintf(stderr, "bad -tokens entry %q (want token=tenant, no \"/\" in tenant)\n", pair)
			return errUsage
		}
		tokens[tok] = tenant
	}
	p := core.New(core.Options{})
	gw := gateway.New(p, gateway.Config{Tokens: tokens, Executor: gateway.NewInProc()})
	fmt.Fprintf(stdout, "taureau gateway: serving v1 API + telemetry on %s (%d tenant tokens)\n", *addr, len(tokens))
	return p.Obs.Serve(*addr,
		obs.Route{Pattern: "/v1/", Handler: gw.ServeHTTP},
		obs.Route{Pattern: "/healthz", Handler: gw.ServeHTTP},
	)
}
