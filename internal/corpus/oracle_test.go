package corpus

import (
	"strings"

	"shine/internal/hin"
	"shine/internal/textproc"
)

// OracleIngest is the single-mention ingestion pass that IngestPage
// and Page.Document replaced: it re-reads the whole text for one
// mention. It is kept, exported to this package's external tests, as
// the reference the one-pass page must reproduce exactly.
func (in *Ingester) OracleIngest(id, mention string, gold hin.ObjectID, text string) *Document {
	tokens := textproc.Tokenize(text)
	matches := in.dict.FindAll(tokens)
	mentionLower := strings.ToLower(joinTokens(textproc.Tokenize(mention)))

	var objects []hin.ObjectID
	matched := make([]bool, len(tokens))
	for _, m := range matches {
		if strings.ToLower(m.Surface(tokens)) == mentionLower {
			// The mention itself: mark consumed but emit nothing.
			for i := m.TokenStart; i < m.TokenEnd; i++ {
				matched[i] = true
			}
			continue
		}
		for i := m.TokenStart; i < m.TokenEnd; i++ {
			matched[i] = true
		}
		objects = append(objects, m.Value.(hin.ObjectID))
	}

	for i, tok := range tokens {
		if matched[i] {
			continue
		}
		if in.cfg.YearType != hin.NoType && textproc.IsYear(tok.Lower) {
			if o, ok := in.g.Lookup(in.cfg.YearType, tok.Lower); ok {
				objects = append(objects, o)
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
			objects = append(objects, o)
		}
	}
	return NewDocument(id, mention, gold, objects)
}
