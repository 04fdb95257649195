// Package annotate implements the paper's motivating application of
// Section 1: automatically annotating domain-specific Web text with
// knowledge from the network. It adds the missing front half of the
// pipeline — *detecting* entity mentions in raw text — on top of the
// SHINE linker: every occurrence of a known entity surface form is
// found, linked in the context of the full document, and returned
// with its byte span, entity and posterior, ready to be rendered as
// hyperlinks or knowledge cards ("we could show some related
// knowledge about the author ... after linking it").
package annotate

import (
	"context"
	"fmt"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/shine"
	"shine/internal/textproc"
)

// Annotation is one linked mention within a text.
type Annotation struct {
	// Start and End are byte offsets of the mention in the input.
	Start, End int
	// Surface is the mention text as it appeared.
	Surface string
	// Entity is the linked entity.
	Entity hin.ObjectID
	// EntityName is the entity's (disambiguated) name in the network.
	EntityName string
	// Posterior is the linking confidence P(e|m, d).
	Posterior float64
	// Candidates is the number of entities the surface form could
	// have referred to.
	Candidates int
}

// Annotator detects and links entity mentions in raw text. It is
// immutable after construction and safe for concurrent use if the
// underlying model is.
type Annotator struct {
	model *shine.Model
	ing   *corpus.Ingester
	// mentions maps entity surface forms (disambiguation suffixes
	// stripped) to detection; the payload is unused, matching is all
	// that matters.
	mentions *textproc.Dictionary
	// minPosterior suppresses annotations the model is unsure about.
	minPosterior float64
}

// Options configures an Annotator.
type Options struct {
	// MinPosterior drops annotations whose top posterior is below it;
	// 0 keeps everything.
	MinPosterior float64
}

// New builds an annotator from a linked-up model and the ingestion
// configuration of its network's schema, with an ingester of its own.
// Callers that already hold an ingester over the model's graph should
// share it through NewWithIngester.
func New(m *shine.Model, cfg corpus.IngestConfig, opts Options) (*Annotator, error) {
	ing, err := corpus.NewIngester(m.Graph(), cfg)
	if err != nil {
		return nil, err
	}
	return NewWithIngester(m, ing, opts)
}

// NewWithIngester builds an annotator that ingests text with ing,
// which must have been built over the model's graph. The mention
// dictionary is built from the names of all entity-type objects.
func NewWithIngester(m *shine.Model, ing *corpus.Ingester, opts Options) (*Annotator, error) {
	if opts.MinPosterior < 0 || opts.MinPosterior >= 1 {
		return nil, fmt.Errorf("annotate: MinPosterior %v outside [0, 1)", opts.MinPosterior)
	}
	g := m.Graph()
	if ing == nil || ing.Graph() != g {
		return nil, fmt.Errorf("annotate: ingester is not built over the model's graph")
	}
	entityType, err := entityTypeOf(m)
	if err != nil {
		return nil, err
	}
	dict := textproc.NewDictionary()
	for _, e := range g.ObjectsOfType(entityType) {
		dict.Add(corpus.CanonicalSurface(g.Name(e)), struct{}{})
	}
	return &Annotator{model: m, ing: ing, mentions: dict, minPosterior: opts.MinPosterior}, nil
}

// entityTypeOf recovers the model's entity type from its meta-path
// set (every path starts at the entity type).
func entityTypeOf(m *shine.Model) (hin.TypeID, error) {
	paths := m.Paths()
	if len(paths) == 0 {
		return hin.NoType, fmt.Errorf("annotate: model has no meta-paths")
	}
	return paths[0].StartType(m.Graph().Schema()), nil
}

// Annotate detects every entity mention in text and links each one
// using the full document as context. Mentions whose best posterior
// falls below MinPosterior are omitted. Annotations are returned in
// text order.
func (a *Annotator) Annotate(id, text string) ([]Annotation, error) {
	return a.AnnotateContext(context.Background(), id, text)
}

// AnnotateContext is Annotate under a request context. The text is
// tokenized, dictionary-scanned and stemmed once; each mention's
// document is derived from that one pass, and each distinct surface
// is linked once: equal surfaces give documents that differ only in
// ID, which linking does not read.
// Cancellation is checked before each detected mention and inside
// each link (see Model.LinkContext), so a canceled request aborts
// after the current mention rather than annotating the rest of the
// text.
func (a *Annotator) AnnotateContext(ctx context.Context, id, text string) ([]Annotation, error) {
	tokens := textproc.Tokenize(text)
	matches := a.mentions.FindAll(tokens)
	if len(matches) == 0 {
		return nil, nil
	}
	page := a.ing.IngestTokens(tokens)
	g := a.model.Graph()

	linked := make(map[string]shine.Result, len(matches))
	var out []Annotation
	for mi, match := range matches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := tokens[match.TokenStart].Start
		end := tokens[match.TokenEnd-1].End
		surface := text[start:end] // as written, punctuation included
		res, ok := linked[surface]
		if !ok {
			doc := page.Document(fmt.Sprintf("%s#%d", id, mi), surface, hin.NoObject)
			var err error
			if res, err = a.model.LinkContext(ctx, doc); err != nil {
				// Surface forms come from entity names, so candidates
				// always exist; any error is a real failure.
				return nil, fmt.Errorf("annotate: linking %q: %w", surface, err)
			}
			linked[surface] = res
		}
		best := res.Candidates[0]
		if best.Posterior < a.minPosterior {
			continue
		}
		out = append(out, Annotation{
			Start:      start,
			End:        end,
			Surface:    surface,
			Entity:     res.Entity,
			EntityName: g.Name(res.Entity),
			Posterior:  best.Posterior,
			Candidates: len(res.Candidates),
		})
	}
	return out, nil
}
