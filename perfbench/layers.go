package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"shine/internal/annotate"
	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/pagerank"
	"shine/internal/shine"
	"shine/internal/snapshot"
)

// The traced run times each layer from outside the program: the
// handler wrapper times ServeHTTP under load, and after the measured
// phase each distinct input is replayed once through the layers'
// public functions, its spans attached to the server span of the first
// request that carried it. Replays run only in the traced run.

// replayLink replays one /v1/link document under the request's server
// span (see replayMention), then annotates the document's text as a
// one-document page, as a root span, so the annotate layer is timed on
// every workload.
func (r *run) replayLink(req, mention, text string) error {
	if err := r.replayMention(req, r.s.timer.serverSpan(req), mention, text); err != nil {
		return err
	}
	return r.replayAnnotate(req, 0, text, nil)
}

// replayMention replays the linking of one mention in text, as the
// link handler and the annotator perform it: Ingest, then LinkContext,
// both children of parent. A separate Candidates lookup is recorded as
// a child of the link span, as an estimate of the lookup's share of it.
func (r *run) replayMention(req string, parent int64, mention, text string) error {
	var doc *corpus.Document
	r.tr.timed("corpus.ingest", req, parent, func() error {
		doc = r.ing.Ingest(req, mention, hin.NoObject, text)
		return nil
	})
	r.counts["corpus.objects_per_doc"] = append(r.counts["corpus.objects_per_doc"], float64(len(doc.Objects)))
	linkID := r.tr.newID()
	start := time.Now()
	cands := r.s.model.Candidates(mention)
	r.tr.record(r.tr.newID(), linkID, "shine.candidates", req, 0, start, time.Since(start))
	r.counts["shine.candidates_per_mention"] = append(r.counts["shine.candidates_per_mention"], float64(len(cands)))
	start = time.Now()
	_, err := r.s.model.LinkContext(context.Background(), doc)
	r.tr.record(linkID, parent, "shine.link", req, 0, start, time.Since(start))
	if err != nil {
		return fmt.Errorf("replaying link of %q in %s: %w", mention, req, err)
	}
	return nil
}

// replayAnnotate replays one annotate page: AnnotateContext, then, as
// its children, the per-mention Ingest + LinkContext it performs for
// each annotation in want, and one Ingest of the whole page (a root
// span) as the unit that annotate.ingest_equiv divides by. parent is
// the server span the annotate span hangs under (0 for a root).
func (r *run) replayAnnotate(req string, parent int64, text string, want []annotate.Annotation) error {
	annID := r.tr.newID()
	start := time.Now()
	anns, err := r.annotator.AnnotateContext(context.Background(), req, text)
	annDur := time.Since(start)
	r.tr.record(annID, parent, "annotate.annotate", req, 0, start, annDur)
	if err != nil {
		return fmt.Errorf("replaying annotate of %s: %w", req, err)
	}
	pageDur, _ := r.tr.timed("corpus.ingest_page", req, 0, func() error {
		r.ing.Ingest(req, "", hin.NoObject, text)
		return nil
	})
	r.counts["annotate.ingest_equiv"] = append(r.counts["annotate.ingest_equiv"], annDur.Seconds()/pageDur.Seconds())
	r.counts["annotate.mentions_per_page"] = append(r.counts["annotate.mentions_per_page"], float64(len(anns)))
	for _, a := range want {
		if err := r.replayMention(req, annID, a.Surface, text); err != nil {
			return err
		}
	}
	return nil
}

// replayDeltas restores a fresh model from the served snapshot and
// applies ds to it with Model.WithDelta, returning the result. It is
// the update-mix correctness reference in every run. In the traced run
// each delta's WithDelta span hangs under the server span of the
// request that posted it, with a replayed hin.MergeDeltas and a
// replayed warm pagerank Refine (chained from the scores of the
// previous revision) as its children.
func (r *run) replayDeltas(ds []delta, reqs []string) (*shine.Model, error) {
	snap, err := snapshot.ReadFile(r.s.snap)
	if err != nil {
		return nil, err
	}
	m, err := snap.Model()
	if err != nil {
		return nil, err
	}
	for i, d := range ds {
		req := reqs[i]
		dl, err := d.stage(m.Graph())
		if err != nil {
			return nil, fmt.Errorf("staging %s: %w", req, err)
		}
		wdID := r.tr.newID()
		if r.tr != nil {
			if err := r.replayMergeRefine(m.Graph(), d, req, wdID); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		m2, _, err := m.WithDelta(dl)
		r.tr.record(wdID, r.s.timer.serverSpan(req), "shine.with_delta", req, 0, start, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("applying %s: %w", req, err)
		}
		m = m2
	}
	return m, nil
}

func (r *run) replayMergeRefine(g *hin.Graph, d delta, req string, parent int64) error {
	dl, err := d.stage(g)
	if err != nil {
		return err
	}
	var g2 *hin.Graph
	if _, err := r.tr.timed("hin.merge", req, parent, func() error {
		g2, _, err = hin.MergeDeltas(g, dl)
		return err
	}); err != nil {
		return fmt.Errorf("replaying merge of %s: %w", req, err)
	}
	wc, ok := r.centrality.(pagerank.WarmCentrality)
	if !ok {
		return fmt.Errorf("centrality %s cannot warm-start", r.centrality.Name())
	}
	var res *pagerank.Result
	if _, err := r.tr.timed("pagerank.refine", req, parent, func() error {
		res, err = wc.Refine(g2, r.prOpts, r.prScores)
		return err
	}); err != nil {
		return fmt.Errorf("replaying refine of %s: %w", req, err)
	}
	r.prScores = res.Scores
	return nil
}

// computeCentrality times the configured centrality's Compute on the
// served graph and keeps the scores for the Refine replays.
func (r *run) computeCentrality() error {
	cfg := shine.DefaultConfig()
	cen, err := pagerank.NewCentrality(cfg.CentralityName(), r.s.model.EntityType())
	if err != nil {
		return err
	}
	r.centrality = cen
	r.prOpts = cfg.PageRank
	if r.prOpts.Workers == 0 {
		r.prOpts.Workers = cfg.Workers
	}
	var res *pagerank.Result
	_, err = r.tr.timed("pagerank.compute", "setup", 0, func() error {
		res, err = cen.Compute(r.s.model.Graph(), r.prOpts)
		return err
	})
	if err != nil {
		return err
	}
	r.prScores = res.Scores
	return nil
}

// probeDelta posts one delta after a request workload's measured phase
// and replays it, so the update layers are timed on every workload.
// The first delta after a snapshot boot runs its popularity refresh
// cold, which pagerank.cold_restarts shows.
func (r *run) probeDelta(c *http.Client) error {
	d := r.in.deltas[0]
	if !r.postDelta(c, d, "probe-delta") {
		return fmt.Errorf("probe delta failed")
	}
	_, err := r.replayDeltas([]delta{d}, []string{"probe-delta"})
	return err
}

// postDelta posts one delta and, in the traced run, records the
// UpdateStats the server answers with: what the serving model's own
// update dropped and whether its popularity refresh ran cold.
func (r *run) postDelta(c *http.Client, d delta, req string) bool {
	code, body, err := r.post(c, "/v1/admin/update", req, 1, []byte(d.ndjson()))
	if err != nil || code != http.StatusOK {
		return false
	}
	var resp struct {
		Stats shine.UpdateStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if r.tr != nil {
		st := resp.Stats
		r.counts["shine.affected_objects"] = append(r.counts["shine.affected_objects"], float64(st.AffectedObjects))
		r.counts["shine.mixtures_dropped"] = append(r.counts["shine.mixtures_dropped"], float64(st.MixturesDropped))
		if st.ColdPopularity {
			r.layers["pagerank.cold_restarts"]++
		}
	}
	return true
}

// counters are the serving model's mixture-index and walker counters,
// read from the server's registry.
type counters struct {
	hits, misses, builds, walks float64
}

func (c counters) sub(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.builds - o.builds, c.walks - o.walks}
}

func (c counters) add(o counters) counters {
	return counters{c.hits + o.hits, c.misses + o.misses, c.builds + o.builds, c.walks + o.walks}
}

// counters reads the registry. The model registered in it changes at
// every delta swap and starts its counters afresh, so differences are
// only meaningful between two reads that saw the same model.
func (r *run) counters() counters {
	var b bytes.Buffer
	r.s.srv.Metrics().WritePrometheus(&b)
	var c counters
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case shine.MetricMixtureHits:
			c.hits = v
		case shine.MetricMixtureMisses:
			c.misses = v
		case shine.MetricMixtureBuilds:
			c.builds = v
		case "shine_walker_walks_total":
			c.walks = v
		}
	}
	return c
}

func (r *run) mixtureLayers(c counters) {
	if c.hits+c.misses > 0 {
		r.layers["shine.mixture_hit_ratio"] = c.hits / (c.hits + c.misses)
	}
	r.layers["shine.mixture_builds"] = c.builds
	r.layers["metapath.walks"] = c.walks
}
