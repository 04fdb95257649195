package annotate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/obs"
	"shine/internal/shine"
	"shine/internal/synth"
	"shine/internal/textproc"
)

// oracleAnnotate is the per-mention loop AnnotateContext replaced: it
// re-ingests the whole text and links once per detected mention. It
// is the reference the one-pass, once-per-surface annotator must
// reproduce exactly.
func oracleAnnotate(ctx context.Context, a *Annotator, id, text string) ([]Annotation, error) {
	tokens := textproc.Tokenize(text)
	matches := a.mentions.FindAll(tokens)
	if len(matches) == 0 {
		return nil, nil
	}
	g := a.model.Graph()

	var out []Annotation
	for mi, match := range matches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := tokens[match.TokenStart].Start
		end := tokens[match.TokenEnd-1].End
		surface := text[start:end]
		doc := a.ing.Ingest(fmt.Sprintf("%s#%d", id, mi), surface, hin.NoObject, text)
		res, err := a.model.LinkContext(ctx, doc)
		if err != nil {
			return nil, fmt.Errorf("annotate: linking %q: %w", surface, err)
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

// sameAnnotations compares annotation lists field by field, posteriors
// by their bits.
func sameAnnotations(t *testing.T, label string, got, want []Annotation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d annotations, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gp, wp := math.Float64bits(g.Posterior), math.Float64bits(w.Posterior)
		g.Posterior, w.Posterior = 0, 0
		if g != w || gp != wp {
			t.Fatalf("%s: annotation %d = %+v (posterior bits %x), oracle %+v (bits %x)",
				label, i, got[i], gp, want[i], wp)
		}
	}
}

// synthAnnotator builds an untrained model over a small generated
// network, with the ingester the dataset was ingested with.
func synthAnnotator(t testing.TB, opts Options) (*synth.Dataset, *Annotator) {
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
	d := ds.Data.Schema
	m, err := shine.New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, shine.DefaultConfig())
	if err != nil {
		t.Fatalf("shine.New: %v", err)
	}
	a, err := NewWithIngester(m, ds.Ingester, opts)
	if err != nil {
		t.Fatalf("NewWithIngester: %v", err)
	}
	return ds, a
}

// TestAnnotateMatchesOracle: pages of 2-16 concatenated generated
// documents annotate exactly as the per-mention oracle annotates them,
// posterior bits included, with and without a posterior floor.
func TestAnnotateMatchesOracle(t *testing.T) {
	ds, a := synthAnnotator(t, Options{})
	floored, err := NewWithIngester(a.model, a.ing, Options{MinPosterior: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	total := 0
	for k := 2; k <= 16; k++ {
		for n := 0; n < 2; n++ {
			parts := make([]string, k)
			for j := range parts {
				parts[j] = ds.RawDocs[rng.Intn(len(ds.RawDocs))].Text
			}
			text := strings.Join(parts, " ")
			for _, an := range []*Annotator{a, floored} {
				label := fmt.Sprintf("page k=%d n=%d min=%v", k, n, an.minPosterior)
				want, err := oracleAnnotate(context.Background(), an, "page", text)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				got, err := an.Annotate("page", text)
				if err != nil {
					t.Fatalf("%s: Annotate: %v", label, err)
				}
				sameAnnotations(t, label, got, want)
				total += len(got)
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d annotations compared; the pages carry too few mentions", total)
	}
}

// FuzzAnnotate: on arbitrary text the annotator agrees with the
// per-mention oracle, errors included.
func FuzzAnnotate(f *testing.F) {
	for _, seed := range []string{
		"Wei Wang works on data and publishes at SIGMOD with Richard R. Muntz.",
		"Wei Wang, wei wang and WEI WANG; Wei  Wang at NIPS on neural data.",
		"Richard R Muntz and Richard R. Muntz wrote with Wei Wang 0001 in SIGMOD",
		"Wei Wang Wei Wang Wei Wang",
		"",
		"a\x80b Wei Wang 日本語 NIPS",
	} {
		f.Add(seed)
	}
	d, _, _, m := annotateFixture(f)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want, wantErr := oracleAnnotate(context.Background(), a, "doc", text)
		got, err := a.Annotate("doc", text)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Annotate(%q) err = %v, oracle err = %v", text, err, wantErr)
		}
		sameAnnotations(t, fmt.Sprintf("%q", text), got, want)
	})
}

// linkCount reads the model's link counter from its registry.
func linkCount(reg *obs.Registry) uint64 {
	return reg.Counter(shine.MetricLinkTotal).Value()
}

// TestAnnotateRepeatedSurfaceLinksOnce: every occurrence of a repeated
// surface gets the same annotation, and each distinct surface is
// linked once per page.
func TestAnnotateRepeatedSurfaceLinksOnce(t *testing.T) {
	d, g, ids, m := annotateFixture(t)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := "Wei Wang works on data. Wei Wang publishes at SIGMOD with Richard R. Muntz. " +
		"Richard R. Muntz and Wei Wang again."
	anns, err := a.Annotate("page", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 5 {
		t.Fatalf("got %d annotations, want 5: %+v", len(anns), anns)
	}
	if got := linkCount(reg); got != 2 {
		t.Errorf("LinkContext ran %d times, want 2 (one per distinct surface)", got)
	}
	first := map[string]Annotation{}
	for _, an := range anns {
		if text[an.Start:an.End] != an.Surface {
			t.Errorf("span [%d,%d) does not slice back to %q", an.Start, an.End, an.Surface)
		}
		f, ok := first[an.Surface]
		if !ok {
			first[an.Surface] = an
			continue
		}
		if an.Entity != f.Entity || an.EntityName != f.EntityName || an.Candidates != f.Candidates ||
			math.Float64bits(an.Posterior) != math.Float64bits(f.Posterior) {
			t.Errorf("occurrence at %d = %+v differs from first occurrence %+v", an.Start, an, f)
		}
	}
	if first["Wei Wang"].Entity != ids["w1"] {
		t.Errorf("Wei Wang linked to %s", g.Name(first["Wei Wang"].Entity))
	}
	want, err := oracleAnnotate(context.Background(), a, "page", text)
	if err != nil {
		t.Fatal(err)
	}
	sameAnnotations(t, "repeated surfaces", anns, want)
}

// cancelAfterLinks is a context that cancels itself the first time
// Err is asked after the model has completed n links.
type cancelAfterLinks struct {
	context.Context
	cancel context.CancelFunc
	reg    *obs.Registry
	n      uint64
}

func (c *cancelAfterLinks) Err() error {
	if linkCount(c.reg) >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAnnotateContextCanceledMidPage: a request canceled after the
// first surface is linked stops before linking the next one and
// returns no annotations.
func TestAnnotateContextCanceledMidPage(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfterLinks{Context: inner, cancel: cancel, reg: reg, n: 1}
	anns, err := a.AnnotateContext(ctx, "page", "Wei Wang, Wei Wang and Richard R. Muntz at SIGMOD")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnnotateContext err = %v, want context.Canceled", err)
	}
	if anns != nil {
		t.Errorf("canceled annotate returned %d annotations, want none", len(anns))
	}
	if got := linkCount(reg); got != 1 {
		t.Errorf("LinkContext ran %d times before the cancel took effect, want 1", got)
	}
}
