package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/server"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/synth"
)

// served is a running server built by the set-up chain.
type served struct {
	model *shine.Model // the snapshot-restored serving model
	srv   *server.Server
	snap  string // snapshot artifact path
	cfg   corpus.IngestConfig
	base  string // http://host:port
	hs    *http.Server
	done  chan struct{} // closed when Serve has returned
	timer *handlerTimer // nil in the untraced run

	emIterations  int
	snapshotBytes int64
}

// stop closes the listener and every connection, and waits for the
// serving goroutine to end.
func (s *served) stop() {
	s.hs.Close()
	<-s.done
}

// setUp runs the program's own set-up path once, from the dataset files
// on disk to a server answering /v1/readyz, and returns the server and
// the wall time it took. Each layer call is recorded as a span when tr
// is non-nil.
func setUp(in *inputs, dir string, k int, tr *tracer) (*served, time.Duration, error) {
	req := fmt.Sprintf("setup-%d", k)
	start := time.Now()
	root := tr.newID()
	step := func(name string, fn func() error) error {
		_, err := tr.timed(name, req, root, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var g *hin.Graph
	if err := step("hin.read_graph", func() error {
		f, err := os.Open(in.graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = hin.ReadGraph(f)
		return err
	}); err != nil {
		return nil, 0, err
	}
	d, err := dblpHandles(g)
	if err != nil {
		return nil, 0, err
	}
	var c *corpus.Corpus
	if err := step("corpus.read", func() error {
		c, err = readCorpus(g, d, in.docsPath)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var m *shine.Model
	if err := step("shine.new", func() error {
		m, err = shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
		return err
	}); err != nil {
		return nil, 0, err
	}
	var ls *shine.LearnStats
	if err := step("shine.learn", func() error {
		ls, err = m.Learn(c)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := step("shine.precompute", m.PrecomputeMixtures); err != nil {
		return nil, 0, err
	}
	snapPath := filepath.Join(dir, fmt.Sprintf("model-%d.snap", k))
	var info snapshot.Info
	if err := step("snapshot.write", func() error {
		info, err = snapshot.WriteFile(snapPath, m.Parts())
		return err
	}); err != nil {
		return nil, 0, err
	}
	var snap *snapshot.Snapshot
	if err := step("snapshot.read", func() error {
		snap, err = snapshot.ReadFile(snapPath)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var sm *shine.Model
	if err := step("snapshot.model", func() error {
		sm, err = snap.Model()
		return err
	}); err != nil {
		return nil, 0, err
	}
	s := &served{model: sm, snap: snapPath, done: make(chan struct{}),
		emIterations: ls.EMIterations, snapshotBytes: info.Bytes}
	if err := step("server.new", func() error {
		sd, err := dblpHandles(sm.Graph())
		if err != nil {
			return err
		}
		s.cfg = corpus.DBLPIngestConfig(sd)
		sinfo := snap.Info()
		if s.srv, err = server.New(sm, s.cfg, server.Options{SnapshotPath: snapPath, SnapshotInfo: &sinfo}); err != nil {
			return err
		}
		var h http.Handler = s.srv
		if tr != nil {
			s.timer = &handlerTimer{h: s.srv, tr: tr}
			h = s.timer
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.base = "http://" + ln.Addr().String()
		s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			defer close(s.done)
			s.hs.Serve(ln)
		}()
		return waitReady(s.base)
	}); err != nil {
		if s.hs != nil {
			s.stop()
		}
		return nil, 0, err
	}
	total := time.Since(start)
	tr.record(root, 0, "setup", req, 0, start, total)
	return s, total, nil
}

// waitReady polls /v1/readyz until it answers 200.
func waitReady(base string) error {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return fmt.Errorf("server never became ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// readCorpus reads the training documents and ingests them against g,
// as `shine snapshot build` does.
func readCorpus(g *hin.Graph, d *hin.DBLPSchema, path string) (*corpus.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ing, err := corpus.NewIngester(g, corpus.DBLPIngestConfig(d))
	if err != nil {
		return nil, err
	}
	c := &corpus.Corpus{}
	dec := json.NewDecoder(f)
	for {
		var rd synth.RawDoc
		if err := dec.Decode(&rd); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		c.Add(ing.Ingest(rd.ID, rd.Mention, rd.Gold, rd.Text))
	}
	if c.Len() == 0 {
		return nil, fmt.Errorf("%s holds no documents", path)
	}
	return c, nil
}

// dblpHandles resolves the DBLP schema handles of a loaded graph by
// their canonical names.
func dblpHandles(g *hin.Graph) (*hin.DBLPSchema, error) {
	s := g.Schema()
	d := &hin.DBLPSchema{Schema: s}
	types := []struct {
		id   *hin.TypeID
		name string
	}{{&d.Author, "author"}, {&d.Paper, "paper"}, {&d.Venue, "venue"}, {&d.Term, "term"}, {&d.Year, "year"}}
	for _, t := range types {
		var ok bool
		if *t.id, ok = s.TypeByName(t.name); !ok {
			return nil, fmt.Errorf("graph has no %q type", t.name)
		}
	}
	rels := []struct {
		id   *hin.RelationID
		name string
	}{{&d.Write, "write"}, {&d.Publish, "publish"}, {&d.Contain, "contain"}, {&d.PublishedIn, "publishedIn"}}
	for _, r := range rels {
		var ok bool
		if *r.id, ok = s.RelationByName(r.name); !ok {
			return nil, fmt.Errorf("graph has no %q relation", r.name)
		}
	}
	d.WrittenBy = s.Inverse(d.Write)
	d.PublishedAt = s.Inverse(d.Publish)
	d.ContainedIn = s.Inverse(d.Contain)
	d.YearOf = s.Inverse(d.PublishedIn)
	return d, nil
}
