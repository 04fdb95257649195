package pagerank_test

import (
	"testing"
	"time"

	"shine/internal/pagerank"
	"shine/internal/synth"
)

// BenchmarkPageRankReference measures the retired edge-push kernel
// (the oracle the pull kernel is tested against) on the same ~400-author
// network the root BenchmarkPageRank uses; the pull kernel should beat
// its per-iteration edge throughput.
func BenchmarkPageRankReference(b *testing.B) {
	cfg := synth.DefaultDBLPConfig()
	cfg.RegularAuthors = 400
	cfg.AmbiguousGroups = 8
	cfg.Topics = 4
	cfg.MaxPapersPerAuthor = 30
	data, err := synth.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := data.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := pagerank.ReferenceCompute(g, pagerank.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations > 0 {
			perIter := time.Since(start) / time.Duration(res.Iterations)
			b.ReportMetric(float64(g.NumLinks())/perIter.Seconds(), "edges/s")
		}
	}
}
