package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"shine/internal/hin"
	"shine/internal/synth"
)

// Dataset scale. The network and the training corpus are the synth
// package's defaults, the dataset `shine gen` writes (about 10.3k
// objects, 82.7k links, 1,955 authors, 700 documents), fixed across
// seeds: the seed draws the traffic, not the network, so set-up work
// and per-request work are the same on every seed and the run-to-run
// spread measures the program and the host, not the draw.
const (
	poolDocs      = 1000 // held-out link documents sent over HTTP
	pagePool      = 240  // distinct annotate pages, 16 of each size
	minPageDocs   = 2
	maxPageDocs   = 16
	deltaPapers   = 20 // papers per delta; two edges each
	batchDocs     = 50 // documents per /v1/link/batch stream
	deltaSchedCap = 400
)

// inputs is everything one seeded run sends to the program. The
// program itself only ever sees the files and the HTTP requests.
type inputs struct {
	graphPath, docsPath string
	// pool are held-out documents (a different document seed than the
	// training corpus) with gold entities.
	pool []synth.RawDoc
	// pages are annotate inputs: each concatenates k pool documents.
	pages []page
	// deltas is the update-mix schedule, in posting order.
	deltas []delta
	stats  hin.Stats
}

// page is one /v1/annotate input. golds holds, per concatenated
// document, the byte offset of its leading mention and its gold entity.
type page struct {
	text  string
	golds []goldSpan
}

type goldSpan struct {
	start int
	gold  hin.ObjectID
}

// delta is one /v1/admin/update batch: new papers, each written by an
// existing ambiguous-group author and published at an existing venue.
type delta struct {
	papers []deltaPaper
}

type deltaPaper struct {
	name, author, venue string
}

// ndjson renders the delta in the /v1/admin/update wire format.
func (d delta) ndjson() string {
	var b strings.Builder
	ref := func(typ, name string) map[string]string { return map[string]string{"type": typ, "name": name} }
	enc := json.NewEncoder(&b)
	for _, p := range d.papers {
		enc.Encode(map[string]string{"op": "object", "type": "paper", "name": p.name})
		enc.Encode(map[string]interface{}{"op": "edge", "rel": "write", "src": ref("author", p.author), "dst": ref("paper", p.name)})
		enc.Encode(map[string]interface{}{"op": "edge", "rel": "publish", "src": ref("venue", p.venue), "dst": ref("paper", p.name)})
	}
	return b.String()
}

// stage applies the delta to a fresh hin.Delta over g in the same
// operation order the server's NDJSON parser uses, so an in-process
// WithDelta replay merges to the same graph bit for bit.
func (d delta) stage(g *hin.Graph) (*hin.Delta, error) {
	s := g.Schema()
	paperT, _ := s.TypeByName("paper")
	authorT, _ := s.TypeByName("author")
	venueT, _ := s.TypeByName("venue")
	write, _ := s.RelationByName("write")
	publish, _ := s.RelationByName("publish")
	dl := g.Append()
	for _, p := range d.papers {
		pid, err := dl.Append(paperT, p.name)
		if err != nil {
			return nil, err
		}
		a, ok := dl.Lookup(authorT, p.author)
		if !ok {
			return nil, fmt.Errorf("no author %q", p.author)
		}
		v, ok := dl.Lookup(venueT, p.venue)
		if !ok {
			return nil, fmt.Errorf("no venue %q", p.venue)
		}
		if err := dl.Patch(write, a, pid); err != nil {
			return nil, err
		}
		if err := dl.Patch(publish, v, pid); err != nil {
			return nil, err
		}
	}
	return dl, nil
}

// makeInputs generates the dataset, writes the network and the training
// documents to dir, and draws the request inputs from seed: the held-out
// document pool, the annotate pages, the delta schedule and the order
// requests are sent in.
func makeInputs(dir string, seed int64) (*inputs, error) {
	data, err := synth.GenerateDBLP(synth.DefaultDBLPConfig())
	if err != nil {
		return nil, err
	}
	docCfg := synth.DefaultDocConfig()
	train, err := synth.GenerateDocs(data, docCfg)
	if err != nil {
		return nil, err
	}
	// Offset from the training documents' seed, so no pool shares
	// their draw.
	docCfg.Seed = seed + 1000
	docCfg.NumDocs = poolDocs
	pool, err := synth.GenerateDocs(data, docCfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		graphPath: filepath.Join(dir, "graph.hin"),
		docsPath:  filepath.Join(dir, "docs.jsonl"),
		pool:      pool,
		stats:     data.Graph.Stats(),
	}
	if err := writeFiles(in, data.Graph, train); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < pagePool; i++ {
		// Every seed gets the same mix of page sizes, so the seed moves
		// which documents a page holds, not how much work it is.
		k := minPageDocs + i%(maxPageDocs-minPageDocs+1)
		var b strings.Builder
		var p page
		for j := 0; j < k; j++ {
			rd := pool[rng.Intn(len(pool))]
			if j > 0 {
				b.WriteString(" ")
			}
			p.golds = append(p.golds, goldSpan{start: b.Len(), gold: rd.Gold})
			b.WriteString(rd.Text)
		}
		p.text = b.String()
		in.pages = append(in.pages, p)
	}
	var authors []string
	for _, grp := range data.Groups {
		for _, m := range grp.Members {
			authors = append(authors, data.Graph.Name(m))
		}
	}
	var venues []string
	for _, vs := range data.TopicVenues {
		for _, v := range vs {
			venues = append(venues, data.Graph.Name(v))
		}
	}
	for i := 0; i < deltaSchedCap; i++ {
		var d delta
		for j := 0; j < deltaPapers; j++ {
			d.papers = append(d.papers, deltaPaper{
				name:   fmt.Sprintf("bench-p%d-%d", i, j),
				author: authors[rng.Intn(len(authors))],
				venue:  venues[rng.Intn(len(venues))],
			})
		}
		in.deltas = append(in.deltas, d)
	}
	return in, nil
}

func writeFiles(in *inputs, g *hin.Graph, train []synth.RawDoc) error {
	gf, err := os.Create(in.graphPath)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(gf); err != nil {
		gf.Close()
		return fmt.Errorf("writing graph: %w", err)
	}
	if err := gf.Close(); err != nil {
		return err
	}
	df, err := os.Create(in.docsPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(df)
	for _, rd := range train {
		if err := enc.Encode(rd); err != nil {
			df.Close()
			return fmt.Errorf("writing documents: %w", err)
		}
	}
	return df.Close()
}
