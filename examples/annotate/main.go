// Annotate: the paper's text-annotation application (Section 1) — a
// reader-facing pipeline that detects every entity mention in a raw
// Web page, links each one against the network, and explains the
// decision evidence the way a production system's debug view would.
//
// Run with:
//
//	go run ./examples/annotate
package main

import (
	"fmt"
	"log"

	"shine/internal/annotate"
	"shine/internal/metapath"
	"shine/internal/shine"
	"shine/internal/synth"
)

func main() {
	// Generate a small network and seed corpus, and train the model.
	net := synth.DefaultDBLPConfig()
	net.RegularAuthors = 400
	net.AmbiguousGroups = 8
	net.Topics = 4
	doc := synth.DefaultDocConfig()
	doc.NumDocs = 120
	ds, err := synth.BuildDataset(net, doc)
	if err != nil {
		log.Fatal(err)
	}
	d := ds.Data.Schema
	m, err := shine.New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, shine.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Learn(ds.Corpus); err != nil {
		log.Fatal(err)
	}

	a, err := annotate.NewWithIngester(m, ds.Ingester, annotate.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Annotate a fresh page about one ambiguous author. The generator
	// gives us gold, so we can check the annotation; a real deployment
	// would render the spans as links.
	page := ds.RawDocs[0]
	fmt.Printf("page text:\n  %s\n\n", page.Text)
	anns, err := a.Annotate(page.ID, page.Text)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d mentions detected and linked:\n", len(anns))
	for _, an := range anns {
		marker := ""
		if an.Surface == page.Mention && an.Entity == page.Gold {
			marker = "  <- matches gold"
		}
		fmt.Printf("  [%3d,%3d) %-22q -> %-22s posterior %.3f (%d candidates)%s\n",
			an.Start, an.End, an.Surface, an.EntityName, an.Posterior, an.Candidates, marker)
	}

	// Explain the headline mention's linking decision.
	ing := ds.Ingester
	docObj := ing.Ingest("explain", page.Mention, page.Gold, page.Text)
	ex, err := m.Explain(docObj)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhy %q -> %s (margin %.2f over %s):\n",
		page.Mention, ds.Data.Graph.Name(ex.Entity), ex.Margin, ds.Data.Graph.Name(ex.RunnerUp))
	fmt.Printf("  popularity prior: %+.3f\n", ex.PopularityLogOdds)
	for i, oc := range ex.Objects {
		if i == 5 {
			fmt.Printf("  … %d more objects\n", len(ex.Objects)-5)
			break
		}
		fmt.Printf("  %-20s (%s) x%d: %+.3f\n", oc.Name, oc.Type, oc.Count, oc.LogOdds)
	}
}
