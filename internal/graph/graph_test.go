package graph

import (
	"math"
	"testing"

	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/simclock"
)

func TestGeneratorsShape(t *testing.T) {
	g := Random(100, 3, 1)
	if g.N != 100 || g.Edges() != 300 {
		t.Fatalf("random graph: n=%d edges=%d", g.N, g.Edges())
	}
	r := Ring(10)
	if r.Edges() != 20 {
		t.Fatalf("ring edges = %d", r.Edges())
	}
	s := Star(5)
	if s.Edges() != 8 {
		t.Fatalf("star edges = %d", s.Edges())
	}
	// Determinism.
	g2 := Random(100, 3, 1)
	for v := 0; v < g.N; v++ {
		for i, e := range g.Adj[v] {
			if g2.Adj[v][i] != e {
				t.Fatal("Random graph nondeterministic")
			}
		}
	}
}

func TestPageRankSerialSums(t *testing.T) {
	g := Random(50, 4, 2)
	pr := PageRankSerial(g, 30, 0.85)
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	// Mass is conserved up to dangling-vertex leakage (none here: every
	// vertex has out-degree 4).
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("pagerank sum = %v", sum)
	}
}

func TestSSSPSerialOnRing(t *testing.T) {
	g := Ring(10)
	dist := SSSPSerial(g, 0)
	if dist[5] != 5 || dist[9] != 1 || dist[0] != 0 {
		t.Fatalf("dist = %v", dist)
	}
}

func pregelEnv(t *testing.T) (*simclock.Virtual, *faas.Platform, *jiffy.Namespace) {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	p := faas.New(v, nil)
	ctrl := jiffy.NewController(v, nil, jiffy.Config{BlockSize: 1 << 20, Latency: jiffy.NoLatency})
	ctrl.AddNode("n0", 256)
	ns, err := ctrl.CreateNamespace("/pregel", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return v, p, ns
}

func TestPregelPageRankMatchesSerial(t *testing.T) {
	v, p, ns := pregelEnv(t)
	g := Random(60, 4, 3)
	want := PageRankSerial(g, 20, 0.85)
	var got []float64
	v.Run(func() {
		var err error
		got, _, err = Run(p, ns, g, PageRank(20, 0.85), EngineConfig{Workers: 4, MaxSupersteps: 25})
		if err != nil {
			t.Error(err)
		}
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPregelSSSPMatchesDijkstra(t *testing.T) {
	v, p, ns := pregelEnv(t)
	g := Random(80, 3, 4)
	want := SSSPSerial(g, 0)
	var got []float64
	var stats RunStats
	v.Run(func() {
		var err error
		got, stats, err = Run(p, ns, g, SSSP(0), EngineConfig{Workers: 5, MaxSupersteps: 100})
		if err != nil {
			t.Error(err)
		}
	})
	for i := range want {
		if want[i] != got[i] && !(math.IsInf(want[i], 1) && math.IsInf(got[i], 1)) {
			t.Fatalf("dist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if stats.Supersteps == 0 || stats.MessagesSent == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPregelHaltsEarly(t *testing.T) {
	v, p, ns := pregelEnv(t)
	g := Ring(6) // SSSP on a small ring converges in ~4 supersteps
	var stats RunStats
	v.Run(func() {
		var err error
		_, stats, err = Run(p, ns, g, SSSP(0), EngineConfig{Workers: 2, MaxSupersteps: 100})
		if err != nil {
			t.Error(err)
		}
	})
	if stats.Supersteps >= 100 || stats.Supersteps < 3 {
		t.Fatalf("supersteps = %d, expected early halt", stats.Supersteps)
	}
}

func TestPregelWorkersCappedByVertices(t *testing.T) {
	v, p, ns := pregelEnv(t)
	g := Ring(3)
	v.Run(func() {
		got, _, err := Run(p, ns, g, SSSP(0), EngineConfig{Workers: 16, MaxSupersteps: 20})
		if err != nil {
			t.Error(err)
			return
		}
		if got[1] != 1 || got[2] != 1 {
			t.Errorf("dist = %v", got)
		}
	})
}

// Ring generates a bidirectional ring (diameter n/2 — a worst case for BSP
// propagation).
func Ring(n int) *Graph {
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1)
		g.AddEdge((v+1)%n, v, 1)
	}
	return g
}

// Star generates a hub-and-spoke graph (vertex 0 is the hub).
func Star(n int) *Graph {
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v, 1)
		g.AddEdge(v, 0, 1)
	}
	return g
}
