package graph

import "math"

// PageRank returns the vertex program computing iters rounds of PageRank
// with the given damping factor.
func PageRank(iters int, damping float64) VertexProgram {
	return VertexProgram{
		Init: func(v int, g *Graph) float64 { return 1.0 / float64(g.N) },
		Compute: func(v int, g *Graph, value float64, msgs []float64, step int) (float64, []Message, bool) {
			newVal := value
			if step > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				newVal = (1-damping)/float64(g.N) + damping*sum
			}
			if step >= iters {
				return newVal, nil, false
			}
			var out []Message
			if deg := len(g.Adj[v]); deg > 0 {
				share := newVal / float64(deg)
				for _, e := range g.Adj[v] {
					out = append(out, Message{To: e.To, Value: share})
				}
			}
			return newVal, out, true
		},
	}
}

// SSSP returns the vertex program computing single-source shortest paths
// from src (parallel Bellman-Ford with vote-to-halt).
func SSSP(src int) VertexProgram {
	return VertexProgram{
		Init: func(v int, g *Graph) float64 {
			if v == src {
				return 0
			}
			return math.Inf(1)
		},
		Compute: func(v int, g *Graph, value float64, msgs []float64, step int) (float64, []Message, bool) {
			best := value
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			improved := best < value || (step == 0 && v == src)
			if !improved {
				return best, nil, false
			}
			var out []Message
			for _, e := range g.Adj[v] {
				out = append(out, Message{To: e.To, Value: best + e.Weight})
			}
			return best, out, false // halt; messages reactivate
		},
	}
}
