package metapath

import (
	"slices"

	"shine/internal/hin"
	"shine/internal/sparse"
)

// ReferenceWalk computes Pe(v|p) with the original map-backed kernel,
// without caching or pooling. It is the oracle the Walker's
// scatter-gather kernel is checked against bit for bit, and the
// baseline BenchmarkWalkKernel measures it against. Each hop expands
// the frontier in ascending index order and each source's neighbours
// in adjacency-list order, so the result is reproducible; pruning
// keeps the maxSupport largest entries, ties broken by ascending index.
func ReferenceWalk(g *hin.Graph, e hin.ObjectID, p Path, maxSupport int) (sparse.Dist, error) {
	w := Walker{g: g}
	if err := w.checkWalk(e, p, maxSupport); err != nil {
		return sparse.Dist{}, err
	}
	cur := map[int32]float64{int32(e): 1}
	for _, rel := range p.Relations() {
		next := make(map[int32]float64, len(cur))
		for _, i := range sortedKeys(cur) {
			v := hin.ObjectID(i)
			deg := g.Degree(rel, v)
			if deg == 0 {
				continue
			}
			share := cur[i] / float64(deg)
			for _, dst := range g.Neighbors(rel, v) {
				next[int32(dst)] += share
			}
		}
		for i, x := range next {
			if x == 0 {
				delete(next, i)
			}
		}
		if maxSupport > 0 && len(next) > maxSupport {
			top := sortedKeys(next)
			slices.SortStableFunc(top, func(a, b int32) int {
				switch {
				case next[a] > next[b]:
					return -1
				case next[a] < next[b]:
					return 1
				}
				return 0
			})
			pruned := make(map[int32]float64, maxSupport)
			for _, i := range top[:maxSupport] {
				pruned[i] = next[i]
			}
			next = pruned
		}
		cur = next
	}
	idx := sortedKeys(cur)
	val := make([]float64, len(idx))
	for k, i := range idx {
		val[k] = cur[i]
	}
	return sparse.NewDistFromRaw(idx, val)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[int32]float64) []int32 {
	keys := make([]int32, 0, len(m))
	for i := range m {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	return keys
}
