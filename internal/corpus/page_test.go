package corpus_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/synth"
	"shine/internal/textproc"
)

// synthPages concatenates 1-16 generated documents per page: single
// documents as the link path sees them, and the 2-16 document pages of
// the annotate benchmark, drawn deterministically from ds.
func synthPages(ds *synth.Dataset, perSize int) []string {
	rng := rand.New(rand.NewSource(11))
	var pages []string
	for k := 1; k <= 16; k++ {
		for n := 0; n < perSize; n++ {
			parts := make([]string, k)
			for j := range parts {
				parts[j] = ds.RawDocs[rng.Intn(len(ds.RawDocs))].Text
			}
			pages = append(pages, strings.Join(parts, " "))
		}
	}
	return pages
}

func smallDataset(t testing.TB) *synth.Dataset {
	t.Helper()
	net := synth.DefaultDBLPConfig()
	net.RegularAuthors = 200
	net.AmbiguousGroups = 5
	net.Topics = 4
	doc := synth.DefaultDocConfig()
	doc.NumDocs = 60
	ds, err := synth.BuildDataset(net, doc)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	return ds
}

// TestPageDocumentMatchesIngest: for every author and venue surface
// occurring on a page — as written, punctuation included — plus each
// source document's own mention and a mention absent from the page,
// the page's Document equals the single-mention oracle's.
func TestPageDocumentMatchesIngest(t *testing.T) {
	ds := smallDataset(t)
	g, d := ds.Data.Graph, ds.Data.Schema
	spans := textproc.NewDictionary()
	for _, typ := range []hin.TypeID{d.Author, d.Venue} {
		for _, o := range g.ObjectsOfType(typ) {
			spans.Add(corpus.CanonicalSurface(g.Name(o)), struct{}{})
		}
	}
	ing := ds.Ingester
	checked := 0
	for pi, text := range synthPages(ds, 2) {
		page := ing.IngestPage(text)
		toks := textproc.Tokenize(text)
		mentions := []string{"", "Nobody Here"}
		for _, m := range spans.FindAll(toks) {
			mentions = append(mentions, text[toks[m.TokenStart].Start:toks[m.TokenEnd-1].End])
		}
		for _, rd := range ds.RawDocs[:5] {
			mentions = append(mentions, rd.Mention)
		}
		for mi, mention := range mentions {
			id := fmt.Sprintf("p%d#%d", pi, mi)
			want := ing.OracleIngest(id, mention, hin.ObjectID(mi), text)
			if got := page.Document(id, mention, hin.ObjectID(mi)); !reflect.DeepEqual(got, want) {
				t.Fatalf("page %d mention %q: Document = %+v, oracle = %+v", pi, mention, got, want)
			}
			if got := ing.Ingest(id, mention, hin.ObjectID(mi), text); !reflect.DeepEqual(got, want) {
				t.Fatalf("page %d mention %q: Ingest = %+v, oracle = %+v", pi, mention, got, want)
			}
			checked++
		}
	}
	if checked < 500 {
		t.Fatalf("only %d mention spans checked; the pages carry too few surfaces", checked)
	}
}
