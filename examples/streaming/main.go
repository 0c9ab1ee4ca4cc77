// Command streaming reproduces the paper's Figure 3 in Go: a Count-Min
// sketch running as a Pulsar function, estimating event frequencies over a
// real-time stream. The Java original:
//
//	public class CountMinFunction implements Function<String, Void> {
//	    CountMinSketch sketch = new CountMinSketch(20,20,128);
//	    Void process(String input, Context context) throws Exception {
//	        sketch.add(input, 1); // Calculates bit indexes and performs +1
//	        long count = sketch.estimateCount(input);
//	        // React to the updated count
//	        return null;
//	    }
//	}
//
// Here the function is a faas function bound to a partitioned topic fed with
// a Zipf-skewed click stream (faas.BindTopic), keeps the sketch in the
// handler's closure (where the Java original keeps it in a field), and
// publishes updated counts for heavy keys to an output topic.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/pulsar"
	"repro/internal/simclock"
	"repro/internal/sketch"
	"repro/internal/workload"
)

func main() {
	platform, clock := core.NewVirtual(core.Options{})
	defer platform.Close()

	const events = 8000
	keys := workload.ZipfKeys(400, 1.4, events, 2026)
	truth := map[string]uint64{}
	for _, k := range keys {
		truth[k]++
	}

	// The sketch lives inside the function, exactly as in Figure 3.
	cm := sketch.NewCountMinWH(20, 20)
	hot := sketch.NewSpaceSaving(10) // companion heavy-hitters sketch

	clock.Run(func() {
		if err := platform.Pulsar.CreateTopic("clicks", 4); err != nil {
			log.Fatal(err)
		}
		if err := platform.Pulsar.CreateTopic("hot-keys", 0); err != nil {
			log.Fatal(err)
		}

		// A topic-fed instance is not dispatched per request, so it pays a
		// microsecond of hand-off per message, not faas's 1 ms default.
		processed := 0
		var doneAt time.Time
		done := simclock.NewEvent(clock)
		if err := platform.Tenant("analytics").Register("count-min", func(_ *faas.Ctx, input []byte) ([]byte, error) {
			key := string(input)
			cm.Add(key, 1) // calculates bit indexes and performs +1
			hot.Add(key, 1)
			if processed++; processed == events {
				doneAt = clock.Now()
				done.Set()
			}
			count := cm.Estimate(key)
			// React to the updated count: publish threshold crossings.
			if count == 100 || count == 500 {
				return []byte(fmt.Sprintf("%s crossed %d", key, count)), nil
			}
			return nil, nil
		}, faas.Config{WarmStart: time.Microsecond, Prewarm: 1}); err != nil {
			log.Fatal(err)
		}
		if err := faas.BindTopic(platform.FaaS, platform.Pulsar, "clicks", "analytics", "count-min", "hot-keys"); err != nil {
			log.Fatal(err)
		}

		// Feed the stream in bursts of 500 a millisecond apart. A burst fits
		// in the binding's receive queue, so the function sees it in publish
		// order (a larger one's order depends on same-instant scheduling).
		prod, err := platform.Pulsar.CreateProducer("clicks")
		if err != nil {
			log.Fatal(err)
		}
		start := clock.Now()
		for i, k := range keys {
			if i > 0 && i%500 == 0 {
				clock.Sleep(time.Millisecond)
			}
			if _, err := prod.SendKey(k, []byte(k)); err != nil {
				log.Fatal(err)
			}
		}
		done.Wait()
		elapsed := doneAt.Sub(start)

		// Drain the threshold notifications.
		cons, err := platform.Pulsar.Subscribe("hot-keys", "monitor", pulsar.Exclusive, pulsar.Earliest)
		if err != nil {
			log.Fatal(err)
		}
		var crossings []string
		for {
			m, ok := cons.TryReceive()
			if !ok {
				break
			}
			crossings = append(crossings, string(m.Payload))
			_ = cons.Ack(m)
		}

		fmt.Printf("processed %d events in %v simulated (%.0f msg/s)\n\n",
			processed, elapsed.Round(time.Millisecond), float64(processed)/elapsed.Seconds())

		// Compare sketch estimates with exact counts for the heavy keys.
		type kc struct {
			k string
			c uint64
		}
		var top []kc
		for k, c := range truth {
			top = append(top, kc{k, c})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].c != top[j].c {
				return top[i].c > top[j].c
			}
			return top[i].k < top[j].k
		})
		fmt.Printf("%-10s %8s %10s %8s\n", "key", "true", "estimate", "error")
		for _, e := range top[:8] {
			est := cm.Estimate(e.k)
			fmt.Printf("%-10s %8d %10d %+7d\n", e.k, e.c, est, int64(est)-int64(e.c))
		}
		fmt.Printf("\nSpaceSaving heavy hitters (k=10):\n")
		for _, e := range hot.Top(5) {
			fmt.Printf("  %-10s count≈%-6d (overcount ≤ %d)\n", e.Key, e.Count, e.Err)
		}
		fmt.Printf("\nthreshold crossings published to hot-keys: %d (e.g. %q)\n",
			len(crossings), first(crossings))
	})
}

func first(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[0]
}
