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
// Here the function consumes a partitioned topic fed with a Zipf-skewed
// click stream, keeps the sketch in the handler's closure (where the Java
// original keeps it in a field), and publishes updated counts for heavy keys
// to an output topic.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/pulsar"
	"repro/internal/sketch"
	"repro/internal/workload"
)

func main() {
	platform, clock := core.NewVirtual(core.Options{})
	defer clock.Close()

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

		fn, err := platform.Pulsar.StartFunction(pulsar.FunctionConfig{
			Name:   "count-min",
			Inputs: []string{"clicks"},
			Output: "hot-keys",
		}, func(m pulsar.Message) ([]byte, error) {
			cm.Add(m.Key, 1) // calculates bit indexes and performs +1
			hot.Add(m.Key, 1)
			count := cm.Estimate(m.Key)
			// React to the updated count: publish threshold crossings.
			if count == 100 || count == 500 {
				return []byte(fmt.Sprintf("%s crossed %d", m.Key, count)), nil
			}
			return nil, nil
		})
		if err != nil {
			log.Fatal(err)
		}

		// Feed the stream.
		prod, err := platform.Pulsar.CreateProducer("clicks")
		if err != nil {
			log.Fatal(err)
		}
		start := clock.Now()
		for _, k := range keys {
			if _, err := prod.SendKey(k, nil); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < 100000 && fn.Processed() < events; i++ {
			clock.Sleep(5 * time.Millisecond)
		}
		elapsed := clock.Now().Sub(start)
		fn.Stop()

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
			fn.Processed(), elapsed.Round(time.Millisecond), float64(fn.Processed())/elapsed.Seconds())

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
