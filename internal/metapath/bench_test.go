package metapath_test

import (
	"testing"

	"shine/internal/metapath"
	"shine/internal/synth"
)

// BenchmarkWalkKernel contrasts the two walk kernels on an uncached
// length-4 walk over a ~400-author network: "map" is the original
// map-backed frontier (ReferenceWalk, the testing oracle), "csr" the
// pooled dense scatter-gather kernel serving production traffic. Same
// bits out — the equivalence tests prove it — different ns/op and
// allocs/op.
func BenchmarkWalkKernel(b *testing.B) {
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
	p := metapath.MustParse(data.Schema.Schema, "A-P-A-P-V")
	entity := data.Groups[0].Members[0]

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := metapath.ReferenceWalk(g, entity, p, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		w := metapath.NewWalker(g, 0) // cache off: measure the kernel
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Walk(entity, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
