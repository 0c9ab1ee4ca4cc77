// Package graph implements the serverless graph processing workload of §5.1
// ([173], Graphless): a vertex-centric BSP ("Pregel" [142]) engine whose
// per-superstep vertex computation fans out over FaaS workers, with vertex
// state and message exchange held in an in-memory engine — here a Jiffy
// namespace, standing in for the distributed Redis memory engine Toader et
// al. used. PageRank and single-source shortest paths are provided as vertex
// programs with exact serial baselines.
package graph

import (
	"container/heap"
	"math"
	"math/rand"
)

// Edge is a weighted directed edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a directed graph in adjacency-list form.
type Graph struct {
	N   int
	Adj [][]Edge
}

// NewGraph creates an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{N: n, Adj: make([][]Edge, n)}
}

// AddEdge adds a directed edge.
func (g *Graph) AddEdge(from, to int, w float64) {
	g.Adj[from] = append(g.Adj[from], Edge{To: to, Weight: w})
}

// Edges returns the total edge count.
func (g *Graph) Edges() int {
	n := 0
	for _, adj := range g.Adj {
		n += len(adj)
	}
	return n
}

// Random generates a graph where each vertex gets outDegree random
// out-neighbours, deterministic under seed.
func Random(n, outDegree int, seed int64) *Graph {
	g := NewGraph(n)
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		for d := 0; d < outDegree; d++ {
			to := rng.Intn(n)
			g.AddEdge(v, to, 1+rng.Float64()*9)
		}
	}
	return g
}

// --- serial baselines ---

// PageRankSerial runs the classic power iteration.
func PageRankSerial(g *Graph, iters int, damping float64) []float64 {
	n := g.N
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		base := (1 - damping) / float64(n)
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			if len(g.Adj[v]) == 0 {
				continue
			}
			share := damping * rank[v] / float64(len(g.Adj[v]))
			for _, e := range g.Adj[v] {
				next[e.To] += share
			}
		}
		rank = next
	}
	return rank
}

// SSSPSerial is Dijkstra from src; unreachable vertices get +Inf.
func SSSPSerial(g *Graph, src int) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distEntry)
		if top.d > dist[top.v] {
			continue
		}
		for _, e := range g.Adj[top.v] {
			if nd := top.d + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, distEntry{e.To, nd})
			}
		}
	}
	return dist
}

type distEntry struct {
	v int
	d float64
}

type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
