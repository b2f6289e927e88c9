package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"remapd/bench"
	"remapd/bench/trace"
	"remapd/internal/dataset"
	"remapd/internal/serve"
	"remapd/internal/tensor"
)

// The serve-http unit is an open loop at each of bench.HTTPRates in turn:
// requests are due on a seeded schedule (gaps uniform in [0.5, 1.5] times
// the mean) whether or not earlier ones have completed, and two senders —
// two keep-alive connections — send them, so a stall delays every request
// behind it. Latency runs from the time a request was due.
const (
	httpConns = 2
	// httpFlush is remapd-serve's Front flush interval: with two
	// connections a batch never fills, so this ticker closes batches.
	httpFlush = 10 * time.Millisecond
	// httpLatencyRate is the offered rate whose latency is the workload's
	// end-to-end latency (at 160 req/s the two connections are ~75% busy
	// and the tail is queueing noise); the highest rate gives its
	// throughput.
	httpLatencyRate = 80
	// httpLimitMS is the p99 latency limit of http.max_ok_rps.
	httpLimitMS = 50
)

// httpCounts is the request count at each offered rate (about 19 s in
// all).
func httpCounts(short bool) []int {
	if short {
		return []int{32, 16, 16}
	}
	return []int{960, 640, 640}
}

// httpPhase is one offered rate's schedule: when each request is due,
// relative to the phase start, and which pooled body it sends.
type httpPhase struct {
	rps     int
	offsets []time.Duration
	picks   []int
}

func httpSchedule(seed uint64, counts []int, pool int) []httpPhase {
	rng := tensor.NewRNG(seed)
	phases := make([]httpPhase, len(bench.HTTPRates))
	for i, rps := range bench.HTTPRates {
		ph := httpPhase{rps: rps, offsets: make([]time.Duration, counts[i]), picks: make([]int, counts[i])}
		mean := float64(time.Second) / float64(rps)
		var t time.Duration
		for k := range ph.offsets {
			ph.picks[k] = rng.Intn(pool)
			ph.offsets[k] = t
			t += time.Duration((0.5 + rng.Float64()) * mean)
		}
		phases[i] = ph
	}
	return phases
}

// classifyBodies pre-encodes one POST /classify body per test image, so
// the senders spend no time on JSON.
func classifyBodies(ds *dataset.Dataset) ([][]byte, error) {
	n := ds.C * ds.H * ds.W
	bodies := make([][]byte, ds.TestLen())
	for i := range bodies {
		label := ds.TestY[i]
		b, err := json.Marshal(serve.ClassifyRequest{Image: ds.TestX.Data[i*n : (i+1)*n], Label: &label})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// httpRecord is one request's timeline.
type httpRecord struct {
	sched, sent, done time.Time
	ok                bool
}

func runHTTP(ctx context.Context, o Options) (*Outcome, error) {
	counts := httpCounts(o.Short)
	total := 0
	for _, c := range counts {
		total += c
	}
	out := &Outcome{}
	var latMS, capacity []float64
	layers := map[string]float64{}

	setup := func(tr *trace.Tracer) (func() error, func(), error) {
		st, err := newServingStack(o, tr, total)
		if err != nil {
			return nil, nil, err
		}
		bodies, err := classifyBodies(st.ds)
		if err != nil {
			return nil, nil, err
		}
		phases := httpSchedule(o.Seed, counts, len(bodies))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		front := serve.NewFront(st.srv, httpFlush)
		front.Start()
		var handler http.Handler = front.Handler()
		var timed *handlerTimes
		if tr != nil {
			timed = &handlerTimes{next: handler, tr: tr}
			handler = timed
		}
		hs := &http.Server{Handler: handler}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				o.Logf("serve-http: %v", err)
			}
		}()
		client := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true,
		}}
		url := "http://" + ln.Addr().String() + "/classify"
		teardown := func() {
			client.CloseIdleConnections()
			_ = hs.Close() // only fails with the listener's own close error, irrelevant at teardown
			wg.Wait()
			front.Close()
		}

		work := func() error {
			maxOK := 0.0
			for _, ph := range phases {
				before := st.srv.Stats()
				recs := openLoop(ctx, client, url, bodies, ph, st.ds.Classes)
				if err := ctx.Err(); err != nil {
					return err
				}
				after := st.srv.Stats()
				addServeStats(layers, before, after)
				res := summarize(recs)
				if int(after.Requests-before.Requests) != len(recs) {
					o.Logf("serve-http: %d rps: server counted %d requests, %d were sent", ph.rps, after.Requests-before.Requests, len(recs))
					res.failed = len(recs)
				}
				out.Attempted += len(recs)
				out.Failed += res.failed
				switch ph.rps {
				case httpLatencyRate:
					latMS = append(latMS, res.latMS...)
				case bench.HTTPRates[len(bench.HTTPRates)-1]:
					capacity = append(capacity, res.achieved)
				}
				p := bench.HTTPRatePrefix(ph.rps)
				layers[p+".p50_ms"] += bench.Quantile(res.latMS, 0.50)
				layers[p+".p99_ms"] += bench.Quantile(res.latMS, 0.99)
				layers[p+".gen_late_p99_ms"] += bench.Quantile(res.lateMS, 0.99)
				if b := after.Batches - before.Batches; b > 0 {
					layers[p+".batch_size_mean"] += float64(after.Requests-before.Requests) / float64(b)
				}
				if timed != nil {
					layers[p+".handler_p50_ms"] += bench.Quantile(timed.take(), 0.50)
				}
				if res.failed == 0 && bench.Quantile(res.latMS, 0.99) <= httpLimitMS && res.achieved >= 0.95*float64(ph.rps) {
					maxOK = float64(ph.rps)
				}
				o.Logf("serve-http: %d rps offered, %.1f achieved, p50 %.2f ms, p99 %.2f ms, %d failed",
					ph.rps, res.achieved, bench.Quantile(res.latMS, 0.5), bench.Quantile(res.latMS, 0.99), res.failed)
			}
			layers["http.max_ok_rps"] += maxOK
			return nil
		}
		return work, teardown, nil
	}

	m, err := measure(o, setup)
	if err != nil {
		return nil, err
	}
	out.EndToEnd = endToEnd(m, bench.Quantile(capacity, 0.5), latMS)
	if o.TraceDir != "" {
		m.addLayerMetrics(layers)
		out.PerLayer = m.perUnit(layers)
		if err := m.writeSpans(o, "serve-http"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// openLoop sends one phase's requests on schedule over httpConns senders
// and returns every request's timeline.
func openLoop(ctx context.Context, client *http.Client, url string, bodies [][]byte, ph httpPhase, classes int) []httpRecord {
	recs := make([]httpRecord, len(ph.offsets))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(recs) {
					return
				}
				rec := &recs[k]
				rec.sched = start.Add(ph.offsets[k])
				if !sleepUntil(ctx, rec.sched) {
					return
				}
				rec.sent = time.Now()
				rec.ok = classify(ctx, client, url, bodies[ph.picks[k]], classes)
				rec.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return recs
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// classify posts one body and reports whether the reply is a 200 carrying
// a class in range.
func classify(ctx context.Context, client *http.Client, url string, body []byte, classes int) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var cr serve.ClassifyResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; a failed drain only costs the reuse
	return err == nil && resp.StatusCode == http.StatusOK && cr.Class >= 0 && cr.Class < classes
}

// phaseResult is one offered rate's outcome.
type phaseResult struct {
	latMS, lateMS []float64 // a failed request's latency is +Inf: it misses every limit
	failed        int
	achieved      float64 // successful requests per second, from the first due time to the last completion
}

func summarize(recs []httpRecord) phaseResult {
	var r phaseResult
	first, last := recs[0].sched, recs[0].done
	for _, rec := range recs {
		r.lateMS = append(r.lateMS, rec.sent.Sub(rec.sched).Seconds()*1e3)
		if !rec.ok {
			r.failed++
			r.latMS = append(r.latMS, math.Inf(1))
			continue
		}
		r.latMS = append(r.latMS, rec.done.Sub(rec.sched).Seconds()*1e3)
		if rec.done.After(last) {
			last = rec.done
		}
	}
	if span := last.Sub(first).Seconds(); span > 0 {
		r.achieved = float64(len(recs)-r.failed) / span
	}
	return r
}

// handlerTimes is the traced run's middleware around Front.Handler(): it
// records a span per request and keeps the phase's handler durations.
type handlerTimes struct {
	next http.Handler
	tr   *trace.Tracer
	mu   sync.Mutex
	ms   []float64
}

func (h *handlerTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.tr.Record("http.handler", start, end)
	h.mu.Lock()
	h.ms = append(h.ms, end.Sub(start).Seconds()*1e3)
	h.mu.Unlock()
}

// take returns and clears the durations recorded since the last take.
func (h *handlerTimes) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.ms
	h.ms = nil
	return out
}
