package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// primaryRoute names the request each workload measures; its server
// and client spans give the handler, envelope and outside-the-handler
// times.
var primaryRoute = map[string]string{
	"link":       "link",
	"annotate":   "annotate",
	"update-mix": "link_batch",
}

// perLayer assembles the traced run's metrics. Times of request layers
// are medians in microseconds per document; set-up layers are medians
// over the run's set-ups in milliseconds. The trace.* metrics repeat
// this run's end-to-end figures, so that subtracting the untraced
// run's gives the tracing overhead.
func perLayer(r *run, e2e map[string]metric) map[string]metric {
	full, self := r.tr.layerTimes()
	route := primaryRoute[r.name]
	msOf := func(name string) float64 { return median(full[name]) / 1e3 }
	out := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	for _, n := range []string{"hin.read_graph", "corpus.read", "shine.new", "pagerank.compute", "shine.learn",
		"shine.precompute", "snapshot.write", "snapshot.read", "snapshot.model", "server.new"} {
		set(n+"_ms", msOf(n), "ms")
	}
	set("shine.em_iterations", float64(r.s.emIterations), "count")
	set("snapshot.bytes", float64(r.s.snapshotBytes), "B")

	handler := full["server."+route]
	set("server.handler_us", median(handler), "us")
	set("server.handler_tail_us", percentile(handler, tailPercentile(len(handler))), "us")
	set("server.envelope_us", median(self["server."+route]), "us")
	set("net.outside_us", median(self["net."+route]), "us")
	set("corpus.ingest_us", median(full["corpus.ingest"]), "us")
	set("corpus.objects_per_doc", mean(r.counts["corpus.objects_per_doc"]), "count")
	set("shine.candidates_us", median(full["shine.candidates"]), "us")
	set("shine.candidates_per_mention", mean(r.counts["shine.candidates_per_mention"]), "count")
	set("shine.link_us", median(self["shine.link"]), "us")
	set("annotate.annotate_us", median(full["annotate.annotate"]), "us")
	set("annotate.ingest_equiv", median(r.counts["annotate.ingest_equiv"]), "ratio")
	set("annotate.mentions_per_page", mean(r.counts["annotate.mentions_per_page"]), "count")

	set("server.update_ms", msOf("server.update"), "ms")
	set("hin.merge_ms", msOf("hin.merge"), "ms")
	set("pagerank.refine_ms", msOf("pagerank.refine"), "ms")
	set("shine.with_delta_ms", msOf("shine.with_delta"), "ms")
	set("shine.affected_objects", mean(r.counts["shine.affected_objects"]), "count")
	set("shine.mixtures_dropped", mean(r.counts["shine.mixtures_dropped"]), "count")

	for _, l := range []struct{ name, unit string }{
		{"pagerank.cold_restarts", "count"},
		{"runtime.alloc_kb_per_op", "KB"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"loadgen.late_ms", "ms"},
		{"shine.mixture_hit_ratio", "ratio"},
		{"shine.mixture_builds", "count"},
		{"metapath.walks", "count"},
	} {
		set(l.name, r.layers[l.name], l.unit)
	}
	for _, n := range []string{"setup_s", "p50_ms", "tail_ms", "cpu_us_per_doc"} {
		set("trace."+n, e2e[n].Value, e2e[n].Unit)
	}
	return out
}

// reportLayers prints the per-layer metrics and the self time of each
// traced layer, and for the request path states how much of the
// handler's median the replayed layers plus the envelope account for.
func reportLayers(name string, r *run, ms map[string]metric) {
	full, self := r.tr.layerTimes()
	fmt.Fprintf(os.Stderr, "  span self time (median us per item; spans with children only):\n")
	names := make([]string, 0, len(full))
	for n := range full {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := "-"
		if s := self[n]; len(s) > 0 {
			st = fmt.Sprintf("%.1f", median(s))
		}
		fmt.Fprintf(os.Stderr, "    %-24s n=%-6d full %10.1f  self %s\n", n, len(full[n]), median(full[n]), st)
	}
	if name == "link" {
		h := ms["server.handler_us"].Value
		parts := ms["corpus.ingest_us"].Value + ms["shine.candidates_us"].Value + ms["shine.link_us"].Value + ms["server.envelope_us"].Value
		fmt.Fprintf(os.Stderr, "  link handler median %.1f us; ingest + candidates + link self + envelope medians = %.1f us (%.0f%%)\n",
			h, parts, 100*parts/h)
	}
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "    %-30s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
