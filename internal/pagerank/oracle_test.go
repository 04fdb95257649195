package pagerank

import (
	"errors"
	"math"

	"shine/internal/hin"
)

// ReferenceCompute is the original serial edge-push kernel, kept as
// the oracle Compute is checked against: it visits every directed
// link through Graph.ForEachLink
// and scatters pr[src]/N_src into next[dst]. The pull kernel must
// match it within tight floating-point tolerance on any graph; the
// two differ only in per-vertex summation order.
func ReferenceCompute(g *hin.Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumObjects()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}

	// Precompute out-degrees once; they are the column norms of B.
	outDeg := make([]int, n)
	for v := 0; v < n; v++ {
		outDeg[v] = g.TotalDegree(hin.ObjectID(v))
	}

	initial := 1.0 / float64(n)
	pr := make([]float64, n)
	next := make([]float64, n)
	for v := range pr {
		pr[v] = initial
	}

	res := &Result{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// Mass from dangling objects is spread uniformly.
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += pr[v]
			}
		}
		base := opts.Lambda*initial + (1-opts.Lambda)*dangling/float64(n)
		for v := range next {
			next[v] = base
		}
		g.ForEachLink(func(_ hin.RelationID, src, dst hin.ObjectID) {
			next[dst] += (1 - opts.Lambda) * pr[src] / float64(outDeg[src])
		})

		delta := 0.0
		for v := range pr {
			delta += math.Abs(next[v] - pr[v])
		}
		pr, next = next, pr
		res.Iterations = iter + 1
		res.Delta = delta
		if delta < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Scores = pr
	return res, nil
}
