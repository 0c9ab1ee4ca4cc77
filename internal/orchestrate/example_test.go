package orchestrate_test

import (
	"bytes"
	"fmt"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/orchestrate"
	"repro/internal/simclock"
)

// ExampleChain composes two functions into a pipeline — each Task sees the
// previous one's output, and the composition bills only the underlying
// invocations (§4.2).
func ExampleChain() {
	p := faas.New(simclock.Real{}, nil)
	_ = p.Register("upper", "demo", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	}, faas.Config{WarmStart: 1, ColdStart: 1})
	_ = p.Register("exclaim", "demo", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		return append(in, '!'), nil
	}, faas.Config{WarmStart: 1, ColdStart: 1})

	engine := orchestrate.NewEngine(p)
	out, err := engine.Execute("demo", orchestrate.Chain(
		orchestrate.Task("upper"),
		orchestrate.Task("exclaim"),
	), []byte("le taureau"), obs.TraceCtx{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(string(out))
	// Output:
	// LE TAUREAU!
}
