// Command graphrank reproduces the paper's §5.1 graph-processing story
// (Toader et al.'s Graphless): a Pregel-style vertex-centric computation
// whose supersteps run as serverless function invocations, with vertex state
// and messages exchanged through Jiffy (standing in for the distributed
// Redis memory engine). It runs PageRank and single-source shortest paths
// over a synthetic web-like graph and checks both against exact serial
// baselines.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jiffy"
)

func main() {
	platform, clock := core.NewVirtual(core.Options{JiffyBlockSize: 1 << 20})
	defer platform.Close()

	g := graph.Random(400, 5, 2026)
	fmt.Printf("graph: %d vertices, %d edges\n\n", g.N, g.Edges())

	clock.Run(func() {
		ns, err := platform.Jiffy.CreateNamespace("/pregel", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
		if err != nil {
			log.Fatal(err)
		}

		// PageRank over 8 serverless workers.
		start := clock.Now()
		ranks, stats, err := graph.Run(platform.FaaS, ns, g, graph.PageRank(20, 0.85), graph.EngineConfig{
			Workers: 8, MaxSupersteps: 25, WorkPerVertex: 100 * time.Microsecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		serial := graph.PageRankSerial(g, 20, 0.85)
		maxDiff := 0.0
		for i := range ranks {
			if d := math.Abs(ranks[i] - serial[i]); d > maxDiff {
				maxDiff = d
			}
		}
		fmt.Printf("PageRank: %d supersteps, %d messages, %v simulated, max |Δ| vs serial = %.2e\n",
			stats.Supersteps, stats.MessagesSent, clock.Now().Sub(start).Round(time.Millisecond), maxDiff)

		type vr struct {
			v    int
			rank float64
		}
		top := make([]vr, g.N)
		for v, r := range ranks {
			top[v] = vr{v, r}
		}
		sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
		fmt.Println("top vertices by rank:")
		for _, e := range top[:5] {
			fmt.Printf("  v%-4d %.5f\n", e.v, e.rank)
		}

		// SSSP from vertex 0 in a fresh sub-namespace.
		ns2, err := ns.CreateChild("sssp", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
		if err != nil {
			log.Fatal(err)
		}
		dists, stats2, err := graph.Run(platform.FaaS, ns2, g, graph.SSSP(0), graph.EngineConfig{
			Workers: 8, MaxSupersteps: 100,
		})
		if err != nil {
			log.Fatal(err)
		}
		want := graph.SSSPSerial(g, 0)
		mismatches := 0
		reachable := 0
		for i := range want {
			if !math.IsInf(want[i], 1) {
				reachable++
			}
			if want[i] != dists[i] && !(math.IsInf(want[i], 1) && math.IsInf(dists[i], 1)) {
				mismatches++
			}
		}
		fmt.Printf("\nSSSP: %d supersteps (halted early), %d/%d reachable, %d mismatches vs Dijkstra\n",
			stats2.Supersteps, reachable, g.N, mismatches)
	})

	fmt.Println()
	fmt.Print(platform.Tenant("graph").Invoice())
}
