package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {4000, 90}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 5000; n++ {
		p := tailPercentile(n)
		if beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%v has %d samples beyond it", n, p, beyond(n, p))
		}
		for _, higher := range tailLadder {
			if higher > p && beyond(n, higher) >= 10 {
				t.Fatalf("n=%d: picked p%v but p%v also has ten samples beyond", n, p, higher)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A handler that stalls once must raise the latency, timed from the due
// time, of the requests queued behind the stall.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stallAt = 10
	stall := 100 * time.Millisecond
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	op := func(c *http.Client, i int) (int, int) {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return 0, 1
		}
		resp.Body.Close()
		return 1, 0
	}
	var tl tally
	// 200/s for 0.5s: one request due every 5ms, 100 in all.
	res := openLoop([]*http.Client{c}, 200, 500*time.Millisecond, 1, op, &tl)
	if len(res.latency) != 100 || tl.attempted.Load() != 100 || tl.failed.Load() != 0 {
		t.Fatalf("ran %d ops, tally %d/%d", len(res.latency), tl.attempted.Load(), tl.failed.Load())
	}
	if res.latency[stallAt] < ms(stall) {
		t.Errorf("stalled request latency %.1fms, want at least %v", res.latency[stallAt], stall)
	}
	// Request stallAt+k was due 5k ms after the stalled one, so it
	// waited about stall - 5k ms behind it.
	for k := 1; k <= 10; k++ {
		if min := ms(stall) - 5*float64(k) - 10; res.latency[stallAt+k] < min {
			t.Errorf("request %d queued behind the stall: latency %.1fms, want at least %.1fms",
				stallAt+k, res.latency[stallAt+k], min)
		}
	}
	if res.latency[stallAt-5] > ms(stall)/2 {
		t.Errorf("request before the stall: latency %.1fms", res.latency[stallAt-5])
	}
}

func TestCutBatchStreamCountsUnansweredLinesAsFailed(t *testing.T) {
	full := `{"seq":0,"entity":1,"posterior":0.5}
{"seq":1,"entity":2,"posterior":0.25}
{"seq":2,"error":"no candidates"}
{"summary":{"docs":3,"failures":1,"seconds":0.01}}
`
	ans, trailer := readBatch([]byte(full), 3)
	if !trailer || batchFailures(ans, trailer) != 1 {
		t.Errorf("complete stream with one error record: trailer=%v failures=%d, want true 1", trailer, batchFailures(ans, trailer))
	}
	cut := `{"seq":0,"entity":1,"posterior":0.5}
{"seq":1,"entity":2,"posterior":0.25}
`
	ans, trailer = readBatch([]byte(cut), 3)
	if trailer || batchFailures(ans, trailer) != 3 {
		t.Errorf("stream cut before its trailer: trailer=%v failures=%d, want false 3", trailer, batchFailures(ans, trailer))
	}
}

func TestVerdictRules(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		parent, chg []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"clear gain", parent, shift(parent, -10), true, 0.1, verdictImproved},
		{"gain inside parent spread", parent, shift(parent, -0.5), true, 0.1, verdictNoWorse},
		{"small loss within bound", parent, shift(parent, 5), true, 0.1, verdictNoWorse},
		{"loss beyond bound", parent, shift(parent, 20), true, 0.1, verdictWorse},
		{"higher is better", parent, shift(parent, 20), false, 0.1, verdictImproved},
		{"too few pairs", parent[:9], shift(parent[:9], -10), true, 0.1, verdictUnresolved},
		{"parent spread wider than bound", noisy, shift(noisy, 5), true, 0.1, verdictUnresolved},
		{"wide spread but every change run better", noisy, shift(noisy, -100), true, 0.1, verdictImproved},
	} {
		if got := verdict(c.parent, c.chg, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Eight wins of ten is not a gain, however large.
	chg := shift(parent, -10)
	chg[0], chg[1] = 200, 200
	if got := verdict(parent, chg, true, 0.5); got == verdictImproved {
		t.Errorf("8/10 wins: verdict %q", got)
	}
}
