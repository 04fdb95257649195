// Package corpus models the Web-document side of the entity linking
// task: documents as bags of typed network objects, entity mentions
// with gold labels, the preprocessing pipeline that turns raw text
// into object bags (Section 5.1 of the paper), and the generic object
// model Pg(v) estimated from the whole collection (Section 3.2).
package corpus

import (
	"cmp"
	"fmt"
	"slices"

	"shine/internal/hin"
	"shine/internal/sparse"
)

// ObjectCount is one object of the network observed in a document,
// with its occurrence count.
type ObjectCount struct {
	Object hin.ObjectID
	Count  int
}

// Document is one Web document containing a single entity mention, in
// the bag-of-typed-objects representation the SHINE model consumes:
// the document "consists of various multi-type objects v's from the
// heterogeneous information network".
type Document struct {
	// ID identifies the document within its corpus.
	ID string
	// Mention is the surface form of the named entity mention to be
	// linked, e.g. "Wei Wang".
	Mention string
	// Gold is the true mapping entity, or hin.NoObject when unknown.
	Gold hin.ObjectID
	// Objects is the typed-object bag, sorted by ascending object ID
	// with no duplicate objects.
	Objects []ObjectCount
}

// TotalCount returns the total number of object occurrences in the
// document (the bag size counting multiplicity).
func (d *Document) TotalCount() int {
	n := 0
	for _, oc := range d.Objects {
		n += oc.Count
	}
	return n
}

// NewDocument builds a Document from an unsorted, possibly duplicated
// object list, normalising it to the sorted deduplicated form.
func NewDocument(id, mention string, gold hin.ObjectID, objects []hin.ObjectID) *Document {
	counts := make(map[hin.ObjectID]int)
	for _, o := range objects {
		counts[o]++
	}
	return &Document{ID: id, Mention: mention, Gold: gold, Objects: sortedCounts(counts)}
}

// sortedCounts renders per-object counts as a bag sorted by object ID.
func sortedCounts(counts map[hin.ObjectID]int) []ObjectCount {
	out := make([]ObjectCount, 0, len(counts))
	for o, c := range counts {
		out = append(out, ObjectCount{Object: o, Count: c})
	}
	slices.SortFunc(out, func(a, b ObjectCount) int { return cmp.Compare(a.Object, b.Object) })
	return out
}

// Corpus is an ordered document collection D.
type Corpus struct {
	Docs []*Document
}

// Add appends a document.
func (c *Corpus) Add(d *Document) { c.Docs = append(c.Docs, d) }

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Subset returns a corpus over the first n documents, sharing the
// underlying document values. It is the slicing operation used by the
// paper's scalability sweep over mention-set sizes.
func (c *Corpus) Subset(n int) (*Corpus, error) {
	if n < 0 || n > len(c.Docs) {
		return nil, fmt.Errorf("corpus: subset of %d from %d documents", n, len(c.Docs))
	}
	return &Corpus{Docs: c.Docs[:n]}, nil
}

// GenericModel is the domain's generic object model Pg(v), "learned
// by counting the frequencies of multi-type objects appearing in the
// document collection D". It smooths the entity-specific object model
// so that observed objects never have zero probability.
type GenericModel struct {
	probs sparse.Dist
}

// EstimateGeneric builds the generic object model from a corpus. It
// returns an error if the corpus contains no object occurrences at
// all, since then no distribution exists. Counts are summed exactly
// (they are integers) and each is then scaled by 1/total.
func EstimateGeneric(c *Corpus) (*GenericModel, error) {
	total := 0
	var n hin.ObjectID
	for _, d := range c.Docs {
		for _, oc := range d.Objects {
			total += oc.Count
			n = max(n, oc.Object+1)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("corpus: cannot estimate generic model from %d documents with no objects", c.Len())
	}
	acc := sparse.NewAccum(int(n))
	for _, d := range c.Docs {
		for _, oc := range d.Objects {
			acc.Add(int32(oc.Object), float64(oc.Count))
		}
	}
	idx, counts := acc.Dist().Raw()
	scale := 1 / float64(total)
	probs := make([]float64, len(counts))
	for k, x := range counts {
		probs[k] = x * scale
	}
	d, err := sparse.NewDistFromRaw(idx, probs)
	if err != nil {
		return nil, fmt.Errorf("corpus: generic model: %w", err)
	}
	return &GenericModel{probs: d}, nil
}

// GenericFromDist adopts a previously estimated probability
// distribution as a GenericModel — the binary-snapshot load path,
// which restores the exact Pg estimated at build time instead of
// re-counting the corpus.
func GenericFromDist(d sparse.Dist) (*GenericModel, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("corpus: empty generic object model")
	}
	return &GenericModel{probs: d}, nil
}

// Prob returns Pg(v). Objects never seen in the collection have
// probability zero; the SHINE model only evaluates Pg on objects of
// the document being scored, which by construction were seen.
func (g *GenericModel) Prob(v hin.ObjectID) float64 {
	return g.probs.Get(int32(v))
}

// Support returns the number of objects with non-zero generic
// probability.
func (g *GenericModel) Support() int { return g.probs.Len() }

// Dist returns the underlying probability distribution (immutable, so
// safe to share).
func (g *GenericModel) Dist() sparse.Dist { return g.probs }
