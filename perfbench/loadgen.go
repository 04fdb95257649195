package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request headers the harness sets so the traced handler wrapper can
// join its span to the client's: the request id and the client span.
const (
	reqHeader   = "X-Bench-Req"
	spanHeader  = "X-Bench-Span"
	itemsHeader = "X-Bench-Items"
)

// newClient returns an HTTP client that holds at most one keep-alive
// connection, so n clients mean at most n connections to the server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// opFunc sends operation i over c and reports how many documents were
// answered with the expected output and how many failed: a non-2xx
// answer, a cut stream or an output mismatch.
type opFunc func(c *http.Client, i int) (answered, failed int)

// tally counts documents attempted and failed across goroutines.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) add(answered, failed int) {
	t.attempted.Add(int64(answered + failed))
	t.failed.Add(int64(failed))
}

// openResult is one open-loop phase: per operation, its latency and
// the sender's lateness, both in milliseconds from the due time, and
// whether it succeeded; and the process CPU seconds used in each of
// the phase's equal time segments.
type openResult struct {
	latency, late []float64
	ok            []bool
	segmentCPU    []float64
}

// openLoop sends n = rate·dur operations on a fixed schedule, operation
// i being due at i/rate seconds after the start, over the given clients.
// A client picks up the next due operation as soon as it is free, so
// when the server stalls, operations queue behind it and their latency,
// timed from the due time, includes the wait. A failed operation
// counts with its measured latency; the caller counts it as failed.
func openLoop(clients []*http.Client, rate float64, dur time.Duration, segments int, op opFunc, t *tally) openResult {
	n := int(rate * dur.Seconds())
	res := openResult{latency: make([]float64, n), late: make([]float64, n), ok: make([]bool, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	marks := make([]float64, 0, segments+1)
	marksDone := make(chan struct{})
	go func() {
		defer close(marksDone)
		for k := 0; k < segments; k++ {
			sleepUntil(start.Add(dur * time.Duration(k) / time.Duration(segments)))
			marks = append(marks, processCPU())
		}
	}()
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				sleepUntil(due)
				sent := time.Now()
				ok, bad := op(c, i)
				done := time.Now()
				t.add(ok, bad)
				res.latency[i] = ms(done.Sub(due))
				res.late[i] = ms(sent.Sub(due))
				res.ok[i] = ok > 0 && bad == 0
			}
		}(c)
	}
	wg.Wait()
	<-marksDone
	marks = append(marks, processCPU())
	for k := 0; k < segments; k++ {
		res.segmentCPU = append(res.segmentCPU, marks[k+1]-marks[k])
	}
	return res
}

// processCPU is the user plus system CPU time the process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sleepUntil blocks until t. time.Sleep rounds short waits up to the
// runtime poller's millisecond resolution on Linux, which would add up
// to a millisecond of sender lateness to every open-loop request; a
// nanosleep system call wakes within tens of microseconds and spins no
// CPU.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// tagRequest marks a request with its id and, when tracing, the client
// span id the server span will name as its parent.
func tagRequest(r *http.Request, req string, spanID int64, items int) {
	r.Header.Set(reqHeader, req)
	if spanID != 0 {
		r.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	if items > 1 {
		r.Header.Set(itemsHeader, strconv.Itoa(items))
	}
}

// handlerTimer wraps the server's handler in the traced run: it times
// each ServeHTTP call from outside and records it as a span whose
// parent is the client span named in the request.
type handlerTimer struct {
	h  http.Handler
	tr *tracer
	// ids maps a request id to its server span, so replayed layer
	// spans can name it as their parent.
	ids sync.Map
}

func (ht *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ht.h.ServeHTTP(w, r)
	d := time.Since(start)
	req := r.Header.Get(reqHeader)
	if req == "" {
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	items, _ := strconv.Atoi(r.Header.Get(itemsHeader))
	id := ht.tr.newID()
	ht.tr.record(id, parent, "server."+routeName(r.URL.Path), req, items, start, d)
	ht.ids.Store(req, id)
}

// serverSpan returns the id of the server span recorded for req.
func (ht *handlerTimer) serverSpan(req string) int64 {
	if ht == nil {
		return 0
	}
	v, ok := ht.ids.Load(req)
	if !ok {
		return 0
	}
	return v.(int64)
}

func routeName(path string) string {
	switch path {
	case "/v1/link":
		return "link"
	case "/v1/link/batch":
		return "link_batch"
	case "/v1/annotate":
		return "annotate"
	case "/v1/admin/update":
		return "update"
	}
	return "other"
}
