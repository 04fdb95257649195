package corpus

import (
	"fmt"
	"slices"
	"strings"

	"shine/internal/hin"
	"shine/internal/textproc"
)

// IngestConfig declares, for a given schema, which object types are
// recognised in raw text and how — mirroring the paper's
// preprocessing: "we recognized objects of author type and objects of
// venue type from DBLP … using dictionary-based exact matching method.
// We identified objects of year type using regular expression. All
// remaining terms … are filtered by a stop word list and stemmed by
// Porter Stemmer."
type IngestConfig struct {
	// DictTypes are object types recognised by dictionary-based exact
	// matching of their names (e.g. author and venue in DBLP).
	DictTypes []hin.TypeID
	// YearType, if not hin.NoType, is the type assigned to four-digit
	// year tokens.
	YearType hin.TypeID
	// TermType, if not hin.NoType, is the type of stemmed leftover
	// terms.
	TermType hin.TypeID
}

// DBLPIngestConfig is the paper's DBLP configuration: dictionary
// matching for authors and venues, years by pattern, everything else
// stemmed into terms.
func DBLPIngestConfig(d *hin.DBLPSchema) IngestConfig {
	return IngestConfig{
		DictTypes: []hin.TypeID{d.Author, d.Venue},
		YearType:  d.Year,
		TermType:  d.Term,
	}
}

// IMDBIngestConfig recognises actors, directors and genres by
// dictionary and keywords as stemmed terms; movie plot text has no
// year role in the schema of Figure 2(b).
func IMDBIngestConfig(m *hin.IMDBSchema) IngestConfig {
	return IngestConfig{
		DictTypes: []hin.TypeID{m.Actor, m.Director, m.Genre},
		YearType:  hin.NoType,
		TermType:  m.Keyword,
	}
}

// Ingester converts raw document text into the typed-object bag
// representation, resolving surface forms against a graph. It is
// immutable after construction and safe for concurrent use.
type Ingester struct {
	g    *hin.Graph
	cfg  IngestConfig
	dict *textproc.Dictionary
}

// NewIngester builds the surface-form dictionary from the names of
// all objects of the configured dictionary types.
func NewIngester(g *hin.Graph, cfg IngestConfig) (*Ingester, error) {
	dict := textproc.NewDictionary()
	for _, t := range cfg.DictTypes {
		objs := g.ObjectsOfType(t)
		if objs == nil {
			return nil, fmt.Errorf("corpus: dictionary type %d has no objects", t)
		}
		for _, o := range objs {
			dict.Add(CanonicalSurface(g.Name(o)), o)
		}
	}
	return &Ingester{g: g, cfg: cfg, dict: dict}, nil
}

// Graph returns the network the ingester resolves surface forms
// against.
func (in *Ingester) Graph() *hin.Graph { return in.g }

// CanonicalSurface strips a DBLP-style numeric disambiguation suffix
// ("Wei Wang 0010" -> "Wei Wang") so that documents, which use the
// plain surface form, still match the entity's dictionary entry.
func CanonicalSurface(name string) string {
	fields := strings.Fields(name)
	if n := len(fields); n > 1 && isAllDigits(fields[n-1]) {
		fields = fields[:n-1]
	}
	return strings.Join(fields, " ")
}

// joinTokens renders a token sequence as space-joined text.
func joinTokens(toks []textproc.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Page is one ingestion pass over a text: the object dictionary
// matches and the bag of every object the pass recognised. Every
// mention's Document is derived from it without re-reading the text,
// so a page with many mentions is tokenized, dictionary-scanned and
// stemmed once. A Page is immutable and safe for concurrent use.
type Page struct {
	// matches are the dictionary hits in text order.
	matches []pageMatch
	// objects is the bag of all dictionary matches plus the year and
	// term objects of the tokens no match consumed, sorted by object.
	objects []ObjectCount
}

// pageMatch is one dictionary hit with its lowercased, space-joined
// surface, the form a mention is compared against.
type pageMatch struct {
	object hin.ObjectID
	lower  string
}

// IngestPage runs the ingestion pass over text once.
func (in *Ingester) IngestPage(text string) *Page {
	return in.IngestTokens(textproc.Tokenize(text))
}

// IngestTokens is IngestPage over text the caller has already
// tokenized with textproc.Tokenize.
func (in *Ingester) IngestTokens(tokens []textproc.Token) *Page {
	p := &Page{}
	found := in.dict.FindAll(tokens)
	p.matches = make([]pageMatch, len(found))
	counts := make(map[hin.ObjectID]int)
	// A match's tokens stay consumed even when the match turns out to
	// be the mention and is dropped, so the term and year pass below
	// never depends on the mention.
	matched := make([]bool, len(tokens))
	for i, m := range found {
		for j := m.TokenStart; j < m.TokenEnd; j++ {
			matched[j] = true
		}
		o := m.Value.(hin.ObjectID)
		p.matches[i] = pageMatch{object: o, lower: lowerSurface(tokens[m.TokenStart:m.TokenEnd])}
		counts[o]++
	}

	for i, tok := range tokens {
		if matched[i] {
			continue
		}
		if in.cfg.YearType != hin.NoType && textproc.IsYear(tok.Lower) {
			if o, ok := in.g.Lookup(in.cfg.YearType, tok.Lower); ok {
				counts[o]++
			}
			continue
		}
		if in.cfg.TermType == hin.NoType {
			continue
		}
		if textproc.IsStopWord(tok.Lower) {
			continue
		}
		term := textproc.NormalizeTerm(tok.Lower)
		if term == "" {
			continue
		}
		if o, ok := in.g.Lookup(in.cfg.TermType, term); ok {
			counts[o]++
		}
	}
	p.objects = sortedCounts(counts)
	return p
}

// lowerSurface renders tokens as their space-joined lowercase forms.
// Tokens hold only letters and digits and strings.ToLower maps rune by
// rune, so this equals strings.ToLower(joinTokens(toks)).
func lowerSurface(toks []textproc.Token) string {
	if len(toks) == 1 {
		return toks[0].Lower
	}
	n := len(toks) - 1
	for _, t := range toks {
		n += len(t.Lower)
	}
	var b strings.Builder
	b.Grow(n)
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Lower)
	}
	return b.String()
}

// Document returns the page as the context of one mention: every
// dictionary match whose surface equals the mention (case-insensitive,
// punctuation-insensitive) is removed from the object bag, per the
// paper ("removed the author name mention itself"), and everything
// else the pass recognised is kept.
func (p *Page) Document(id, mention string, gold hin.ObjectID) *Document {
	// Normalise the mention the same way match surfaces are rendered
	// (tokenised and space-joined), so punctuation variants like
	// "Richard R. Muntz" still match their in-text occurrences.
	mentionLower := strings.ToLower(joinTokens(textproc.Tokenize(mention)))
	var buf [8]hin.ObjectID
	dropped := buf[:0]
	for _, m := range p.matches {
		if m.lower == mentionLower {
			dropped = append(dropped, m.object)
		}
	}
	slices.Sort(dropped)
	// Both lists are sorted by object and every dropped object is in
	// the page bag: subtract in one merge.
	objects := make([]ObjectCount, 0, len(p.objects))
	for _, oc := range p.objects {
		for len(dropped) > 0 && dropped[0] == oc.Object {
			oc.Count--
			dropped = dropped[1:]
		}
		if oc.Count > 0 {
			objects = append(objects, oc)
		}
	}
	return &Document{ID: id, Mention: mention, Gold: gold, Objects: objects}
}

// Ingest converts text into a Document for one mention; it is
// IngestPage(text).Document(id, mention, gold). Tokens and dictionary
// matches that resolve to no network object are dropped.
func (in *Ingester) Ingest(id, mention string, gold hin.ObjectID, text string) *Document {
	return in.IngestPage(text).Document(id, mention, gold)
}
