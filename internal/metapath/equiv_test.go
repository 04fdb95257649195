package metapath

import (
	"math/rand"
	"slices"
	"testing"

	"shine/internal/sparse"
)

// TestWalkMatchesReferenceBitForBit: the CSR scatter-gather kernel
// reproduces the map-backed reference kernel exactly — same support,
// same values to the last bit — across random graphs, paths and
// pruning levels. This is the determinism contract the frozen serving
// path rests on.
func TestWalkMatchesReferenceBitForBit(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d, g, authors := randomDBLP(seed)
		w := NewWalker(g, 0) // cache off: every Walk runs the kernel
		rng := rand.New(rand.NewSource(seed))
		for _, p := range DBLPPaperPaths(d) {
			for _, a := range authors {
				maxSupport := 0
				if rng.Intn(2) == 0 {
					maxSupport = 1 + rng.Intn(6)
				}
				got, err := w.WalkPruned(a, p, maxSupport)
				if err != nil {
					t.Fatalf("seed %d: WalkPruned: %v", seed, err)
				}
				want, err := ReferenceWalk(g, a, p, maxSupport)
				if err != nil {
					t.Fatalf("seed %d: ReferenceWalk: %v", seed, err)
				}
				if got.Len() != want.Len() {
					t.Fatalf("seed %d path %s e=%d k=%d: support %d vs reference %d",
						seed, p, a, maxSupport, got.Len(), want.Len())
				}
				got.ForEach(func(i int32, x float64) {
					if wx := want.Get(i); x != wx {
						t.Fatalf("seed %d path %s e=%d k=%d: [%d] = %v, reference %v (bit-for-bit)",
							seed, p, a, maxSupport, i, x, wx)
					}
				})
			}
		}
	}
}

// TestWalkMixtureDistMatchesVectorMixture: the pooled frozen mixture
// agrees bit-for-bit with mixing the per-path reference walks in path
// order — the addition sequence logJoint uses.
func TestWalkMixtureDistMatchesVectorMixture(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d, g, authors := randomDBLP(seed)
		w := NewWalker(g, 64)
		paths := DBLPPaperPaths(d)
		rng := rand.New(rand.NewSource(seed + 100))
		weights := make([]float64, len(paths))
		sum := 0.0
		for i := range weights {
			weights[i] = rng.Float64()
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		weights[rng.Intn(len(weights))] = 0 // exercise the skip-zero path

		for _, a := range authors {
			got, err := w.WalkMixtureDist(a, paths, weights, 0)
			if err != nil {
				t.Fatalf("seed %d: WalkMixtureDist: %v", seed, err)
			}
			refs := make([]sparse.Dist, len(paths))
			for k, p := range paths {
				ref, err := ReferenceWalk(g, a, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				refs[k] = ref
			}
			want := sparse.MixDists(refs, weights)
			if got.Len() != want.Len() {
				t.Fatalf("seed %d e=%d: mixture support %d vs %d", seed, a, got.Len(), want.Len())
			}
			got.ForEach(func(i int32, x float64) {
				if wx := want.Get(i); x != wx {
					t.Fatalf("seed %d e=%d: mixture[%d] = %v, want %v (bit-for-bit)", seed, a, i, x, wx)
				}
			})
		}
	}
}

// TestWalkCacheReturnsAreImmutableAliases: the walker hands every
// caller the same frozen Dist backing arrays, and the Dist API is
// read-only. Corrupting the caller-owned copies that Indices and a
// clone of Raw hand out must not leak back into the cache.
func TestWalkCacheReturnsAreImmutableAliases(t *testing.T) {
	d, g, authors := randomDBLP(3)
	w := NewWalker(g, 64)
	p := DBLPPaperPaths(d)[0]
	first, err := w.Walk(authors[0], p)
	if err != nil {
		t.Fatal(err)
	}
	idx := first.Indices()
	_, raw := first.Raw()
	val := slices.Clone(raw)
	for k := range idx {
		idx[k], val[k] = -1, -1 // attack the caller's copies
	}
	again, err := w.Walk(authors[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if againIdx, _ := again.Raw(); len(againIdx) > 0 {
		if firstIdx, _ := first.Raw(); &againIdx[0] != &firstIdx[0] {
			t.Error("cache hit returned a fresh copy, want the shared frozen arrays")
		}
	}
	ref, err := ReferenceWalk(g, authors[0], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != ref.Len() {
		t.Fatalf("cached support %d, want %d", again.Len(), ref.Len())
	}
	again.ForEach(func(i int32, x float64) {
		if x != ref.Get(i) {
			t.Fatalf("cache corrupted through a caller's copy: [%d] = %v, want %v", i, x, ref.Get(i))
		}
	})
}
