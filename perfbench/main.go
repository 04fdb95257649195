// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded synthetic DBLP dataset, writes it to files, runs
// the program's own set-up path (hin.ReadGraph → shine.New → Learn →
// PrecomputeMixtures → snapshot write/read → server.New on a loopback
// listener) and drives that server over real HTTP from the same
// process, checking every answer against the same snapshot-restored
// model linked in-process.
//
//	perfbench --workload link|annotate|update-mix --seed N --seconds S --trace 0|1
//	perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl
//	perfbench overhead untraced.jsonl traced.jsonl
//
// A run prints a human-readable report on standard error and, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. With --record FILE it also
// appends {"workload": W, "seed": N, "trace": T, "result": {...}} to
// FILE, the input format of compare and overhead. It exits non-zero
// when an answer did not match the expected output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"shine/internal/annotate"
	"shine/internal/corpus"
)

// setups is how many times a run performs the whole set-up chain;
// setup_s is their median.
const setups = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*run) (*outcome, error){
	"link":       runLink,
	"annotate":   runAnnotate,
	"update-mix": runUpdateMix,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		case "overhead":
			exitOn(overheadMain(os.Args[2:]))
			return
		}
	}
	workload := flag.String("workload", "link", "workload: link, annotate or update-mix")
	seed := flag.Int64("seed", 1, "seed of the request inputs and their schedule")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	record := flag.String("record", "", "append the result, tagged with workload and seed, to this file")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, err := runWorkload(*workload, fn, *seed, *seconds, *trace == 1)
	if err != nil {
		exitOn(err)
	}
	line, err := json.Marshal(res)
	exitOn(err)
	fmt.Println(string(line))
	if *record != "" {
		exitOn(appendRecord(*record, *workload, *seed, *trace, res))
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runWorkload(name string, fn func(*run) (*outcome, error), seed int64, seconds float64, traced bool) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeInputs(dir, seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var s *served
	var times []float64
	for k := 0; k < setups; k++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		if s, d, err = setUp(in, dir, k, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	defer s.stop()

	r := &run{name: name, s: s, in: in, tr: tr, seed: seed, seconds: seconds}
	if traced {
		r.layers = make(map[string]float64)
		r.counts = make(map[string][]float64)
		if r.ing, err = corpus.NewIngester(s.model.Graph(), s.cfg); err != nil {
			return nil, err
		}
		if r.annotator, err = annotate.New(s.model, s.cfg, annotate.Options{}); err != nil {
			return nil, err
		}
		if err := r.computeCentrality(); err != nil {
			return nil, err
		}
	}
	o, err := fn(r)
	if err != nil {
		return nil, err
	}
	setupS := median(times)
	res := &result{
		Attempted: r.t.attempted.Load(),
		Failed:    r.t.failed.Load(),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	e2e := map[string]metric{
		"setup_s":        {setupS, "s"},
		"p50_ms":         {o.p50, "ms"},
		"tail_ms":        {o.tail, "ms"},
		"cpu_us_per_doc": {o.cpuPerDoc, "us"},
		"accuracy":       {o.accuracy, "ratio"},
		"peak_heap_mb":   {o.peakHeapMB, "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(os.Stderr, "  dataset: %d objects, %d links; pool %d docs, %d pages, %d deltas scheduled\n",
		in.stats.Objects, in.stats.Links, len(in.pool), len(in.pages), len(in.deltas))
	fmt.Fprintf(os.Stderr, "  set-up runs (s): %.3f\n", times)
	fmt.Fprintf(os.Stderr, "  latency: p50 %.4f ms, p%g %.4f ms over %d samples\n", o.p50, o.tailPct, o.tail, o.samples)
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d, output mismatches %d, error rate %.6f\n",
		res.Attempted, res.Failed, r.mism.Load(), float64(res.Failed)/float64(max(res.Attempted, 1)))
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = perLayer(r, e2e)
	if err := tr.dump(filepath.Join(".bench_build", fmt.Sprintf("spans-%s.jsonl", name))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	reportLayers(name, r, res.Metrics)
	return res, nil
}

func appendRecord(path, workload string, seed int64, trace int, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, Result: *res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeCounters reads the bytes allocated so far and the GC and
// total CPU seconds the runtime has accounted.
func runtimeCounters() (alloc uint64, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// heapInUse is the heap memory occupied by objects, live or not yet
// swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
