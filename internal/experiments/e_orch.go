package experiments

import (
	"time"

	"repro/internal/billing"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/orchestrate"
)

// E7Orchestration: §4.2's three properties of orchestration frameworks
// (Lopez et al. [137]): functions are black boxes, a composition is itself a
// function, and the user "should only be charged for the basic functions,
// not the composition as well, i.e., they should not be double-billed".
func E7Orchestration() Table {
	p, v := core.NewVirtual(core.Options{})
	defer v.Close()
	table := Table{
		ID:      "E7",
		Title:   "Composition billing vs direct invocation billing",
		Claim:   "§4.2: composing functions must not double-bill; a composition is itself a function",
		Columns: []string{"workflow", "tasks", "direct GB-s", "composed GB-s", "double-billed"},
	}
	reg := func(name string, work time.Duration) {
		if err := p.Tenant("acme").Register(name, func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			ctx.Work(work)
			return in, nil
		}, faas.Config{MemoryMB: 512, ColdStart: time.Millisecond, MaxRetries: -1}); err != nil {
			panic(err)
		}
	}
	v.Run(func() {
		reg("extract", 100*time.Millisecond)
		reg("transform", 200*time.Millisecond)
		reg("load", 100*time.Millisecond)

		e := p.Orchestrator
		if err := e.RegisterComposition("etl", orchestrate.Chain(
			orchestrate.Task("extract"),
			orchestrate.Task("transform"),
			orchestrate.Task("load"),
		)); err != nil {
			panic(err)
		}
		// A nested composition: parallel etl over two branches, then load.
		if err := e.RegisterComposition("fanout-etl", orchestrate.Chain(
			orchestrate.Parallel(orchestrate.Task("etl"), orchestrate.Task("etl")),
			orchestrate.Task("load"),
		)); err != nil {
			panic(err)
		}

		cases := []struct {
			name    string
			tasks   []string // the basic functions the workflow invokes
			machine orchestrate.State
		}{
			{"chain(3)", []string{"extract", "transform", "load"}, orchestrate.Task("etl")},
			{"nested parallel", []string{"extract", "transform", "load", "extract", "transform", "load", "load"}, orchestrate.Task("fanout-etl")},
		}
		for _, c := range cases {
			p.Meter.Reset()
			for _, fn := range c.tasks {
				if _, err := p.Tenant("acme").Invoke(fn, []byte("x")); err != nil {
					panic(err)
				}
			}
			direct := p.Meter.Units("acme", billing.ResInvocationGBs)

			p.Meter.Reset()
			if _, err := e.Execute("acme", c.machine, []byte("x")); err != nil {
				panic(err)
			}
			composed := p.Meter.Units("acme", billing.ResInvocationGBs)

			table.Rows = append(table.Rows, []string{
				c.name, f("%d", len(c.tasks)),
				f("%.4f", direct), f("%.4f", composed),
				f("%v", composed > direct+1e-9),
			})
		}
	})
	table.Notes = "composition executes the same basic invocations; the orchestration layer itself meters nothing"
	return table
}
