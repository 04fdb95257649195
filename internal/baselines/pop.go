// Package baselines implements the two comparison systems of the
// paper's evaluation (Section 5.2.1): the entity popularity baseline
// POP and the vector similarity baseline VSim. UWalk is the
// unconstrained-walk variant Section 3.2 rejects. All three resolve
// candidates through the model's surface-form trie by default.
package baselines

import (
	"fmt"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/pagerank"
	"shine/internal/shine"
	"shine/internal/surftrie"
)

// POP links every mention to its most popular candidate entity,
// using the same PageRank-based popularity model as SHINE (Formula
// 7). Context is ignored entirely.
type POP struct {
	popularity map[hin.ObjectID]float64
	cands      shine.CandidateSource
}

// NewPOP computes entity popularity offline and resolves candidates
// through cands. Pass a SHINE model's CandidateSource() when comparing
// the two systems — eval.CompareLinkers feeds McNemar paired outcomes,
// which are only meaningful when both linkers choose from the same
// candidate set per mention. A nil cands builds the default
// surface-form trie over the graph, the same index shine.New builds,
// so even standalone POP resolves candidates by the model's rules
// rather than through a divergent path.
func NewPOP(g *hin.Graph, entityType hin.TypeID, cands shine.CandidateSource, opts pagerank.Options) (*POP, error) {
	res, err := pagerank.Compute(g, opts)
	if err != nil {
		return nil, fmt.Errorf("baselines: computing popularity: %w", err)
	}
	pop, err := pagerank.EntityPopularity(g, res.Scores, entityType)
	if err != nil {
		return nil, err
	}
	if cands == nil {
		if cands, err = defaultCandidates(g, entityType); err != nil {
			return nil, err
		}
	}
	return &POP{popularity: pop, cands: cands}, nil
}

// defaultCandidates builds the candidate source a baseline uses when
// none is supplied: the surface-form trie shine.New builds, so every
// baseline resolves a mention to the same entities the model does.
func defaultCandidates(g *hin.Graph, entityType hin.TypeID) (shine.CandidateSource, error) {
	trie, err := surftrie.Build(g, entityType)
	if err != nil {
		return nil, err
	}
	return trie, nil
}

// Candidates exposes POP's candidate resolution so tests can pin it
// against the model's.
func (p *POP) Candidates(mention string) []hin.ObjectID {
	return p.cands.Candidates(mention)
}

// Link returns the most popular candidate for the document's mention.
// Ties break towards the lower entity ID, deterministically.
func (p *POP) Link(doc *corpus.Document) (hin.ObjectID, error) {
	cands := p.cands.Candidates(doc.Mention)
	if len(cands) == 0 {
		return hin.NoObject, fmt.Errorf("baselines: mention %q has no candidates", doc.Mention)
	}
	best := cands[0]
	for _, e := range cands[1:] {
		if p.popularity[e] > p.popularity[best] {
			best = e
		}
	}
	return best, nil
}
