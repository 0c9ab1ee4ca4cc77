package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/sebs"
)

// runSebs executes the SeBS-style end-to-end suite — every app driven
// through the real HTTP gateway on the virtual clock — and prints the JSON
// report to stdout.
func runSebs(requests int, apps string) {
	cfg := sebs.Config{Requests: requests}
	if apps != "" {
		cfg.Apps = strings.Split(apps, ",")
	}
	rep, err := sebs.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runGateway serves the v1 REST API (plus the telemetry endpoints) on a
// real-clock platform until killed. Tokens arrive as
// "token=tenant,token=tenant"; the in-process executor exposes the builtin
// handlers (echo, work, fail), so the whole register→invoke→invoice loop is
// curl-able with no Go code.
func runGateway(addr, tokenSpec string) {
	tokens := make(map[string]string)
	for _, pair := range strings.Split(tokenSpec, ",") {
		tok, tenant, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || tok == "" || tenant == "" || strings.Contains(tenant, "/") {
			fmt.Fprintf(os.Stderr, "bad -tokens entry %q (want token=tenant, no \"/\" in tenant)\n", pair)
			os.Exit(1)
		}
		tokens[tok] = tenant
	}
	p := core.New(core.Options{})
	gw := gateway.New(p, gateway.Config{Tokens: tokens, Executor: gateway.NewInProc()})
	handler := p.Obs.Handler(
		obs.Route{Pattern: "/v1/", Handler: gw.ServeHTTP},
		obs.Route{Pattern: "/healthz", Handler: gw.ServeHTTP},
	)
	fmt.Printf("taureau gateway: serving v1 API + telemetry on %s (%d tenant tokens)\n", addr, len(tokens))
	if err := http.ListenAndServe(addr, handler); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
