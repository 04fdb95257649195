package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shine/internal/annotate"
	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/pagerank"
	"shine/internal/shine"
	"shine/internal/synth"
)

// Rates of the open loops, fixed so that a faster or slower program
// meets the same offered load. Each is about a fifth of what a 2-CPU
// host sustains closed-loop (12,000 to 16,000 links or 200 pages a
// second there), so latency at this rate measures service time plus
// ordinary queueing, not overload. Half the link rate was tried: it
// raised p50 (more idle wake-ups per request) and steadied p90 no more.
const (
	linkRate     = 2000.0 // /v1/link requests per second
	annotateRate = 40.0   // /v1/annotate pages per second
)

// update-mix posts deltaRate deltas per measured second, one after
// every streamsPerDelta batch streams of batchDocs documents. Its length
// is set by this work, not by the clock: about 19 seconds at --seconds
// 20 on a 2-CPU host (4,000 documents a second). A delta takes about
// 70 ms there and falls due every 190 ms, so deltas rarely queue
// behind one another and their latency measures the update itself.
const (
	deltaRate       = 5.0
	streamsPerDelta = 15
)

// latencySegments is how many consecutive segments the open-loop phase
// of link and annotate is cut into.
const latencySegments = 8

// cpuPerDoc is the process CPU time in microseconds per answered
// document. Server and load generator share the process; the load
// generator is the same code on both sides of a comparison.
func cpuPerDoc(cpuSeconds float64, docs int) float64 {
	return cpuSeconds * 1e6 / float64(max(docs, 1))
}

// numClients is the number of keep-alive client connections: one per
// CPU, as the benchmark's load generator shares the host.
func numClients() int { return max(runtime.NumCPU(), 1) }

// outcome is what one workload run measured.
type outcome struct {
	p50, tail, tailPct float64
	samples            int
	cpuPerDoc          float64 // microseconds
	accuracy           float64
	peakHeapMB         float64
}

// run bundles what every workload needs.
type run struct {
	name    string
	s       *served
	in      *inputs
	tr      *tracer // nil in the untraced run
	seed    int64
	seconds float64
	t       tally
	mism    atomic.Int64

	// Traced run only: per-layer metrics, per-replay counts, and the
	// replay helpers over the served model.
	layers     map[string]float64
	counts     map[string][]float64
	ing        *corpus.Ingester
	annotator  *annotate.Annotator
	centrality pagerank.Centrality
	prOpts     pagerank.Options
	prScores   []float64
}

// post sends one request and returns the status and body. When
// tracing, the round trip is recorded as a net.<route> span that the
// server span names as its parent.
func (r *run) post(c *http.Client, path, req string, items int, body []byte) (int, []byte, error) {
	id := r.tr.newID()
	hr, err := http.NewRequest(http.MethodPost, r.s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	tagRequest(hr, req, id, items)
	start := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.tr.record(id, 0, "net."+routeName(path), req, items, start, time.Since(start))
	return resp.StatusCode, out, err
}

// phaseStats samples the Go runtime around a measured phase: peak heap
// in use, bytes allocated and the GC's share of CPU.
type phaseStats struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	peak      atomic.Uint64
	alloc0    uint64
	gc0, cpu0 float64
}

func startPhase() *phaseStats {
	runtime.GC()
	p := &phaseStats{stop: make(chan struct{})}
	p.alloc0, p.gc0, p.cpu0 = runtimeCounters()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapInUse(); h > p.peak.Load() {
				p.peak.Store(h)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// end stops sampling and returns the peak heap in MB, the KB allocated
// per operation and the GC CPU fraction over the phase.
func (p *phaseStats) end(ops int64) (peakMB, allocKBPerOp, gcFrac float64) {
	close(p.stop)
	p.wg.Wait()
	alloc, gc, cpu := runtimeCounters()
	peakMB = float64(p.peak.Load()) / (1 << 20)
	allocKBPerOp = float64(alloc-p.alloc0) / 1024 / float64(max(ops, 1))
	if cpu > p.cpu0 {
		gcFrac = (gc - p.gc0) / (cpu - p.cpu0)
	}
	return peakMB, allocKBPerOp, gcFrac
}

// linkAnswer is the /v1/link response body.
type linkAnswer struct {
	Entity     *int32 `json:"entity"`
	Candidates []struct {
		Entity    *int32  `json:"entity"`
		Posterior float64 `json:"posterior"`
	} `json:"candidates"`
}

// sameLink reports whether an HTTP answer carries exactly the expected
// result: the same top entity and, candidate by candidate, the same
// entity and the same posterior bits after the JSON round trip.
func sameLink(a linkAnswer, want shine.Result) bool {
	if a.Entity == nil || hin.ObjectID(*a.Entity) != want.Entity || len(a.Candidates) != len(want.Candidates) {
		return false
	}
	for i, c := range a.Candidates {
		w := want.Candidates[i]
		if c.Entity == nil || hin.ObjectID(*c.Entity) != w.Entity || math.Float64bits(c.Posterior) != math.Float64bits(w.Posterior) {
			return false
		}
	}
	return true
}

// runLink: open-loop /v1/link at linkRate for the whole run.
func runLink(r *run) (*outcome, error) {
	pool := r.in.pool
	ing, err := corpus.NewIngester(r.s.model.Graph(), r.s.cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	want := make([]shine.Result, len(pool))
	bodies := make([][]byte, len(pool))
	for i, rd := range pool {
		if want[i], err = r.s.model.LinkContext(ctx, ing.Ingest(rd.ID, rd.Mention, hin.NoObject, rd.Text)); err != nil {
			return nil, fmt.Errorf("expected answer for %s: %w", rd.ID, err)
		}
		bodies[i], _ = json.Marshal(map[string]string{"mention": rd.Mention, "text": rd.Text})
	}
	perm := rand.New(rand.NewSource(r.seed + 4)).Perm(len(pool))
	answered := make([]atomic.Bool, len(pool))
	firstReq := make([]atomic.Value, len(pool))
	op := func(c *http.Client, i int) (int, int) {
		doc := perm[i%len(perm)]
		req := fmt.Sprintf("link-%d", i)
		code, body, err := r.post(c, "/v1/link", req, 1, bodies[doc])
		if err != nil || code != http.StatusOK {
			return 0, 1
		}
		var a linkAnswer
		if json.Unmarshal(body, &a) != nil || !sameLink(a, want[doc]) {
			r.mism.Add(1)
			return 0, 1
		}
		if answered[doc].CompareAndSwap(false, true) {
			firstReq[doc].Store(req)
		}
		return 1, 0
	}
	return r.measure(op, linkRate, func() float64 {
		correct := 0
		for i, rd := range pool {
			if answered[i].Load() && want[i].Entity == rd.Gold {
				correct++
			}
		}
		return float64(correct) / float64(len(pool))
	}, func() error {
		for i, rd := range pool {
			req, _ := firstReq[i].Load().(string)
			if err := r.replayLink(req, rd.Mention, rd.Text); err != nil {
				return err
			}
		}
		return nil
	})
}

// annotationAnswer is one element of the /v1/annotate response.
type annotationAnswer struct {
	Start      int     `json:"start"`
	End        int     `json:"end"`
	Entity     int32   `json:"entity"`
	Posterior  float64 `json:"posterior"`
	Candidates int     `json:"candidates"`
}

func sameAnnotations(got []annotationAnswer, want []annotate.Annotation) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.Start != w.Start || g.End != w.End || hin.ObjectID(g.Entity) != w.Entity ||
			g.Candidates != w.Candidates || math.Float64bits(g.Posterior) != math.Float64bits(w.Posterior) {
			return false
		}
	}
	return true
}

// runAnnotate: open-loop /v1/annotate at annotateRate for the whole run.
func runAnnotate(r *run) (*outcome, error) {
	pages := r.in.pages
	ann, err := annotate.New(r.s.model, r.s.cfg, annotate.Options{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	want := make([][]annotate.Annotation, len(pages))
	bodies := make([][]byte, len(pages))
	for i, p := range pages {
		if want[i], err = ann.AnnotateContext(ctx, fmt.Sprintf("page-%d", i), p.text); err != nil {
			return nil, fmt.Errorf("expected annotations for page %d: %w", i, err)
		}
		bodies[i], _ = json.Marshal(map[string]string{"text": p.text})
	}
	answered := make([]atomic.Bool, len(pages))
	firstReq := make([]atomic.Value, len(pages))
	op := func(c *http.Client, i int) (int, int) {
		// Pool order cycles through the page sizes, so every stretch
		// of the schedule carries the same mix of work.
		pg := i % len(pages)
		req := fmt.Sprintf("annotate-%d", i)
		code, body, err := r.post(c, "/v1/annotate", req, 1, bodies[pg])
		if err != nil || code != http.StatusOK {
			return 0, 1
		}
		var a struct {
			Annotations []annotationAnswer `json:"annotations"`
		}
		if json.Unmarshal(body, &a) != nil || !sameAnnotations(a.Annotations, want[pg]) {
			r.mism.Add(1)
			return 0, 1
		}
		if answered[pg].CompareAndSwap(false, true) {
			firstReq[pg].Store(req)
		}
		return 1, 0
	}
	return r.measure(op, annotateRate, func() float64 {
		correct, total := 0, 0
		for i, p := range pages {
			for _, gs := range p.golds {
				total++
				if !answered[i].Load() {
					continue
				}
				for _, a := range want[i] {
					if a.Start == gs.start && a.Entity == gs.gold {
						correct++
						break
					}
				}
			}
		}
		return float64(correct) / float64(total)
	}, func() error {
		for i, p := range pages {
			req, _ := firstReq[i].Load().(string)
			if err := r.replayAnnotate(req, r.s.timer.serverSpan(req), p.text, want[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// measure runs the open loop of a request workload and fills the
// end-to-end metrics. In the traced run it then replays the layers on
// each distinct input and posts one probe delta.
func (r *run) measure(op opFunc, rate float64, accuracy func() float64, replay func() error) (*outcome, error) {
	clients := make([]*http.Client, numClients())
	for i := range clients {
		clients[i] = newClient()
	}
	defer closeClients(clients)

	c0 := r.counters()
	ps := startPhase()
	ol := openLoop(clients, rate, time.Duration(r.seconds*1e9), latencySegments, op, &r.t)
	peak, allocKB, gcFrac := ps.end(r.t.attempted.Load())
	c1 := r.counters()

	o := r.latencyOutcome(ol.latency, latencySegments)
	size := len(ol.ok) / latencySegments
	var perDoc []float64
	for k, cpu := range ol.segmentCPU {
		docs := 0
		for _, ok := range ol.ok[k*size : (k+1)*size] {
			if ok {
				docs++
			}
		}
		perDoc = append(perDoc, cpuPerDoc(cpu, docs))
	}
	_, o.cpuPerDoc, _ = quartiles(perDoc)
	o.accuracy = accuracy()
	o.peakHeapMB = peak
	if r.tr != nil {
		r.layers["runtime.alloc_kb_per_op"] = allocKB
		r.layers["runtime.gc_cpu_fraction"] = gcFrac
		r.layers["loadgen.late_ms"] = percentile(ol.late, tailPercentile(len(ol.late)))
		r.mixtureLayers(c1.sub(c0))
		if err := replay(); err != nil {
			return nil, err
		}
		if err := r.probeDelta(clients[0]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// latencyOutcome reduces open-loop latencies, in due-time order, to
// the p50 and tail reported: the phase is cut into consecutive
// segments, each segment's percentiles are taken, and the median over
// segments is reported, so a burst of CPU stolen by another tenant
// moves one segment rather than the run. The tail percentile is picked
// by the segment's sample count.
func (r *run) latencyOutcome(lat []float64, segments int) *outcome {
	size := len(lat) / segments
	p := tailPercentile(size)
	var p50s, tails []float64
	for k := 0; k < segments; k++ {
		seg := lat[k*size : (k+1)*size]
		p50s = append(p50s, median(seg))
		tails = append(tails, percentile(seg, p))
	}
	_, p50, _ := quartiles(p50s)
	_, tail, _ := quartiles(tails)
	return &outcome{p50: p50, tail: tail, tailPct: p, samples: len(lat)}
}

// batchAnswer is one /v1/link/batch response line: a result, an error
// record or the summary trailer.
type batchAnswer struct {
	Seq       *int                          `json:"seq"`
	Entity    *int32                        `json:"entity"`
	Posterior float64                       `json:"posterior"`
	Error     string                        `json:"error"`
	Summary   *struct{ Docs, Failures int } `json:"summary"`
}

// batchBody renders pool documents [from, from+n) (wrapping) as an
// NDJSON /v1/link/batch body.
func batchBody(pool []synth.RawDoc, from, n int) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for j := 0; j < n; j++ {
		d := pool[(from+j)%len(pool)]
		enc.Encode(map[string]string{"id": d.ID, "mention": d.Mention, "text": d.Text})
	}
	return b.Bytes()
}

// readBatch parses a /v1/link/batch response of n input lines. It
// returns the answers by input position (nil where a line was not
// answered or answered with an error) and whether the trailer came.
// A stream cut before its trailer leaves the unanswered lines nil.
func readBatch(body []byte, n int) ([]*batchAnswer, bool) {
	out := make([]*batchAnswer, n)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	trailer := false
	for sc.Scan() {
		var a batchAnswer
		if json.Unmarshal(sc.Bytes(), &a) != nil {
			continue
		}
		switch {
		case a.Summary != nil:
			trailer = a.Summary.Docs == n
		case a.Seq != nil && *a.Seq >= 0 && *a.Seq < n && a.Error == "" && a.Entity != nil:
			out[*a.Seq] = &a
		}
	}
	return out, trailer
}

// batchFailures counts the lines of a batch that did not get a result:
// error records, and every line when the trailer is missing.
func batchFailures(ans []*batchAnswer, trailer bool) int {
	if !trailer {
		return len(ans)
	}
	n := 0
	for _, a := range ans {
		if a == nil {
			n++
		}
	}
	return n
}

// runUpdateMix: one client sends closed-loop /v1/link/batch streams
// over the pool while a second posts the seeded delta schedule to
// /v1/admin/update, one delta per streamsPerDelta streams. Afterwards
// the pool is linked once more over HTTP and compared with an
// in-process model that applied the same deltas with Model.WithDelta.
func runUpdateMix(r *run) (*outcome, error) {
	refs := r.in.pool
	nDeltas := int(deltaRate * r.seconds)
	if nDeltas < 1 || nDeltas > len(r.in.deltas) {
		return nil, fmt.Errorf("run needs %d deltas, schedule holds %d", nDeltas, len(r.in.deltas))
	}
	applied := make([]bool, nDeltas)
	var cmu sync.Mutex
	var intervals counters
	last := r.counters()

	batchClient, deltaClient := newClient(), newClient()
	defer closeClients([]*http.Client{batchClient, deltaClient})
	batchOp := func(c *http.Client, i int) (int, int) {
		body := batchBody(refs, i*batchDocs, batchDocs)
		code, out, err := r.post(c, "/v1/link/batch", fmt.Sprintf("batch-%d", i), batchDocs, body)
		if err != nil || code != http.StatusOK {
			return 0, batchDocs
		}
		ans, trailer := readBatch(out, batchDocs)
		failed := batchFailures(ans, trailer)
		return batchDocs - failed, failed
	}
	deltaOp := func(c *http.Client, i int) (int, int) {
		if r.tr != nil {
			cmu.Lock()
			intervals = intervals.add(r.counters().sub(last))
			cmu.Unlock()
		}
		if !r.postDelta(c, r.in.deltas[i], fmt.Sprintf("delta-%d", i)) {
			return 0, 1
		}
		applied[i] = true
		if r.tr != nil {
			cmu.Lock()
			last = r.counters()
			cmu.Unlock()
		}
		return 1, 0
	}

	// Delta k falls due when the batch client has finished its
	// (k+1)·streamsPerDelta-th stream, so every run interleaves the same
	// reads with the same writes however fast the host is; its latency
	// is timed from that moment. The delta client works through the due
	// deltas one at a time while the streams go on.
	ps := startPhase()
	cpu0 := processCPU()
	dues := make(chan time.Time, nDeltas)
	lat := make([]float64, 0, nDeltas)
	late := make([]float64, 0, nDeltas)
	deltasDone := make(chan struct{})
	go func() {
		defer close(deltasDone)
		for due := range dues {
			late = append(late, ms(time.Since(due)))
			ok, bad := deltaOp(deltaClient, len(lat))
			r.t.add(ok, bad)
			lat = append(lat, ms(time.Since(due)))
		}
	}()
	// CPU per document is the median over up to latencySegments
	// stretches of the stream, each the same whole number of delta
	// cycles, so a burst of load from another tenant of the host moves
	// the stretch it hit, not the run.
	streams := nDeltas * streamsPerDelta
	segStreams := max(nDeltas/latencySegments, 1) * streamsPerDelta
	docs, segDocs := 0, 0
	var perDoc []float64
	start, mark := time.Now(), cpu0
	for i := 0; i < streams; i++ {
		ok, bad := batchOp(batchClient, i)
		r.t.add(ok, bad)
		docs += ok
		segDocs += ok
		if (i+1)%streamsPerDelta == 0 {
			dues <- time.Now()
		}
		if (i+1)%segStreams == 0 {
			now := processCPU()
			perDoc = append(perDoc, cpuPerDoc(now-mark, segDocs))
			mark, segDocs = now, 0
		}
	}
	close(dues)
	<-deltasDone
	cpu := processCPU() - cpu0
	wall := time.Since(start).Seconds()
	peak, allocKB, gcFrac := ps.end(int64(docs))
	fmt.Fprintf(os.Stderr, "  batch: %d documents in %.2fs (%.0f/s), %.2f CPU-seconds\n", docs, wall, float64(docs)/wall, cpu)
	if r.tr != nil {
		intervals = intervals.add(r.counters().sub(last))
	}

	// In-process reference: the same snapshot, the same deltas.
	var ds []delta
	var reqs []string
	for i, ok := range applied {
		if ok {
			ds = append(ds, r.in.deltas[i])
			reqs = append(reqs, fmt.Sprintf("delta-%d", i))
		}
	}
	ref, err := r.replayDeltas(ds, reqs)
	if err != nil {
		return nil, err
	}
	ing, err := corpus.NewIngester(ref.Graph(), r.s.cfg)
	if err != nil {
		return nil, err
	}
	code, out, err := r.post(batchClient, "/v1/link/batch", "final", len(refs), batchBody(refs, 0, len(refs)))
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("final batch: status %d: %v", code, err)
	}
	ans, trailer := readBatch(out, len(refs))
	failed := batchFailures(ans, trailer)
	correct := 0
	ctx := context.Background()
	for i, rd := range r.in.pool {
		want, err := ref.LinkContext(ctx, ing.Ingest(rd.ID, rd.Mention, hin.NoObject, rd.Text))
		if err != nil {
			return nil, fmt.Errorf("expected answer for %s: %w", rd.ID, err)
		}
		a := ans[i]
		if a == nil || !trailer {
			continue
		}
		if hin.ObjectID(*a.Entity) != want.Entity || math.Float64bits(a.Posterior) != math.Float64bits(want.Candidates[0].Posterior) {
			r.mism.Add(1)
			failed++
			continue
		}
		if want.Entity == rd.Gold {
			correct++
		}
	}
	r.t.add(len(refs)-failed, failed)

	o := r.latencyOutcome(lat, 1)
	_, o.cpuPerDoc, _ = quartiles(perDoc)
	o.accuracy = float64(correct) / float64(len(refs))
	o.peakHeapMB = peak
	if r.tr != nil {
		r.layers["runtime.alloc_kb_per_op"] = allocKB
		r.layers["runtime.gc_cpu_fraction"] = gcFrac
		r.layers["loadgen.late_ms"] = percentile(late, tailPercentile(len(late)))
		r.mixtureLayers(intervals)
		for i, d := range refs {
			if err := r.replayLink(fmt.Sprintf("batch-%d", i/batchDocs), d.Mention, d.Text); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}
