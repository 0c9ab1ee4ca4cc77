// Command quickstart is the smallest end-to-end tour of the platform:
// deploy a function, invoke it synchronously and through a topic trigger,
// watch it scale to zero, and read the fine-grained bill — the §2 trio of
// ease of use, demand-driven execution, and cost efficiency.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

func main() {
	// A virtual clock makes the demo deterministic and instant; pass
	// simclock.Real{} via core.Options to run against wall time instead.
	platform, clock := core.NewVirtual(core.Options{})
	defer platform.Close()
	acme := platform.Tenant("acme")

	clock.Run(func() {
		// 1. Deploy a function. No servers, no capacity planning: just a
		// handler and a memory size (§2 "ease of use").
		greet := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(20 * time.Millisecond) // modelled compute
			return []byte(fmt.Sprintf("hello, %s (request %d)", payload, ctx.RequestID)), nil
		}
		if err := acme.Register("greet", greet, faas.Config{
			MemoryMB:  256,
			KeepAlive: time.Minute,
		}); err != nil {
			log.Fatal(err)
		}

		// 2. Invoke it. The first call pays a cold start; the second
		// reuses the warm instance.
		for _, name := range []string{"bull", "picasso"} {
			res, err := acme.Invoke("greet", []byte(name))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("invoke: %-32s cold=%-5v latency=%v billed=%v\n",
				res.Output, res.Cold, res.Latency, res.Billed)
		}

		// 3. Wire an event source: each message on a Pulsar topic triggers
		// the function (§3.1's event-driven pattern). A failed invocation
		// is retried, and dead-lettered after five calls.
		if err := platform.Pulsar.CreateTopic("greetings", 0); err != nil {
			log.Fatal(err)
		}
		if err := faas.BindTopic(platform.FaaS, platform.Pulsar, "greetings", acme.Name(), "greet", ""); err != nil {
			log.Fatal(err)
		}
		greetings, err := platform.Pulsar.CreateProducer("greetings")
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := greetings.Send([]byte(fmt.Sprintf("queued-%d", i))); err != nil {
				log.Fatal(err)
			}
		}
		clock.Sleep(time.Second) // let the binding drain the topic

		// 4. Demand-driven execution: idle past the keep-alive, the warm
		// pool scales back to zero (§2).
		clock.Sleep(2 * time.Minute)
		st, _ := acme.Stats("greet")
		fmt.Printf("\nafter idle: invocations=%d coldStarts=%d warmIdle=%d (scaled to zero)\n",
			st.Invocations, st.ColdStarts, st.WarmIdle)
	})

	// 5. Fine-grained billing: pay for 20ms granules of actual use, not
	// reserved servers (§2 "cost efficiency").
	fmt.Println()
	fmt.Print(acme.Invoice())
	fmt.Printf("\nsimulated time elapsed: %v\n", clock.Elapsed())
}
