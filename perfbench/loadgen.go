package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// route is one pmserve query endpoint the generator drives.
type route int

const (
	routeTopK route = iota
	routeTrajectory
	routeMovers
	numRoutes
)

var routeNames = [numRoutes]string{"topk", "trajectory", "movers"}

func (r route) String() string { return routeNames[r] }

// queryK is the k of every top-k and movers query.
const queryK = 10

// query is one request of the mix: a window (top-k), a vertex
// (trajectory) or a window pair (movers).
type query struct {
	Route route
	A, B  int
}

func (q query) path() string {
	switch q.Route {
	case routeTopK:
		return fmt.Sprintf("/v1/topk?window=%d&k=%d", q.A, queryK)
	case routeTrajectory:
		return fmt.Sprintf("/v1/vertex/%d/trajectory", q.A)
	default:
		return fmt.Sprintf("/v1/movers?from=%d&to=%d&k=%d", q.A, q.B, queryK)
	}
}

// queryMix draws the serve phase's request mix: 80% top-k over a Zipf
// distribution of windows (a few hot windows, mostly cache hits), 10%
// trajectories of uniformly drawn vertices (cold first, then cached)
// and 10% movers over uniformly drawn window pairs (nearly always a
// miss). The mix is an assumption, not recorded traffic: nothing
// records pmserve's queries. It was chosen for steadiness: about 70% of
// the answers are cache hits, so the median latency sits among the hits
// rather than on the edge between hits and misses, where it would jump
// with the seed; the misses' own median is reported beside it. The same
// seed gives the same sequence.
type queryMix struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	hot      []int // Zipf rank -> window, so hot windows are spread over the series
	windows  int
	vertices int
}

func newQueryMix(seed int64, windows, vertices int) *queryMix {
	rng := rand.New(rand.NewSource(seed))
	return &queryMix{
		rng:      rng,
		zipf:     rand.NewZipf(rng, 1.5, 1, uint64(windows-1)),
		hot:      rng.Perm(windows),
		windows:  windows,
		vertices: vertices,
	}
}

func (m *queryMix) next() query {
	switch u := m.rng.Float64(); {
	case u < 0.8:
		return query{Route: routeTopK, A: m.hot[m.zipf.Uint64()]}
	case u < 0.9:
		return query{Route: routeTrajectory, A: m.rng.Intn(m.vertices)}
	default:
		return query{Route: routeMovers, A: m.rng.Intn(m.windows), B: m.rng.Intn(m.windows)}
	}
}

func (m *queryMix) batch(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = m.next()
	}
	return qs
}

// sample is the record of one request. Times are offsets from the
// start of its step.
type sample struct {
	Route route
	// Due is when the schedule says the request is sent; Dispatched is
	// when the generator handed it to a connection, Sent when a
	// connection took it, Done when its response was read.
	Due, Dispatched, Sent, Done time.Duration
	// Status is the HTTP status, 0 for a transport error or timeout.
	Status int
	// Cache is the X-Cache header: hit, miss or coalesced.
	Cache string
	// Body is kept for every keepEvery-th request, for the answer check.
	Body []byte
	// Wrong is set when the answer check finds Body differs from the
	// direct store answer.
	Wrong bool
}

func (s *sample) failed() bool { return s.Status != http.StatusOK || s.Wrong }

// slo is the limit a ladder step must meet.
type slo struct {
	// P99Ms bounds the p99 latency, timed from each request's due time.
	P99Ms float64
	// FailFrac bounds the failed share of the step's requests.
	FailFrac float64
	// BacklogMs bounds the median queueing delay (sent - due) over the
	// step's last tenth; beyond it the backlog is growing.
	BacklogMs float64
}

// stepStats is the accounting of one fixed-rate step.
type stepStats struct {
	Rate     float64 `json:"rate"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	// Wrong counts the answers the check found wrong (also in Failed).
	Wrong int `json:"wrong"`
	// LatencyP50 and LatencyP99 are from each request's due time, in
	// ms; a failed request counts as infinitely late.
	LatencyP50 pct `json:"latency_p50_ms"`
	LatencyP99 pct `json:"latency_p99_ms"`
	// MissP50 is the median latency, from due time, of the successful
	// answers that were not cache hits (misses and coalesced waits): the
	// query-computation path.
	MissP50 pct `json:"miss_p50_ms"`
	// LateP99 is how late the generator dispatched (p99, ms).
	LateP99 pct `json:"late_p99_ms"`
	// QueueEndMs is the median sent - due over the step's last tenth.
	QueueEndMs float64 `json:"queue_end_ms"`
	Backlog    bool    `json:"backlog"`
	// Achieved is the rate of successful answers over the step, 1/s.
	Achieved  float64 `json:"achieved"`
	Hits      int     `json:"hits"`
	Misses    int     `json:"misses"`
	Coalesced int     `json:"coalesced"`
	// RTTHitMs and RTTMissMs are client round trips (done - sent) of
	// successful answers split by X-Cache (coalesced counts as a miss).
	RTTHitMs  []float64 `json:"-"`
	RTTMissMs []float64 `json:"-"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize does the accounting of one step sent at rate.
func summarize(rate float64, samples []sample, lim slo) stepStats {
	st := stepStats{Rate: rate, Requests: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	var missLat []float64
	var lastDone time.Duration
	for i := range samples {
		s := &samples[i]
		late[i] = ms(s.Dispatched - s.Due)
		if s.Done > lastDone {
			lastDone = s.Done
		}
		if s.Wrong {
			st.Wrong++
		}
		if s.failed() {
			st.Failed++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms(s.Done - s.Due)
		rtt := ms(s.Done - s.Sent)
		switch s.Cache {
		case "hit":
			st.Hits++
			st.RTTHitMs = append(st.RTTHitMs, rtt)
		case "coalesced":
			st.Coalesced++
			st.RTTMissMs = append(st.RTTMissMs, rtt)
			missLat = append(missLat, lat[i])
		default:
			st.Misses++
			st.RTTMissMs = append(st.RTTMissMs, rtt)
			missLat = append(missLat, lat[i])
		}
	}
	sort.Float64s(lat)
	st.LatencyP50 = percentile(lat, 0.50)
	st.LatencyP99 = percentile(lat, 0.99)
	st.MissP50 = percentile(sortedCopy(missLat), 0.50)
	st.LateP99 = percentile(sortedCopy(late), 0.99)

	byDue := append([]sample(nil), samples...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].Due < byDue[j].Due })
	tail := byDue[len(byDue)-max(1, len(byDue)/10):]
	queue := make([]float64, len(tail))
	for i := range tail {
		queue[i] = ms(tail[i].Sent - tail[i].Due)
	}
	st.QueueEndMs = median(queue)
	st.Backlog = st.QueueEndMs > lim.BacklogMs

	span := time.Duration(float64(len(samples)) / rate * float64(time.Second))
	if lastDone > span {
		span = lastDone
	}
	st.Achieved = float64(st.Requests-st.Failed) / span.Seconds()
	return st
}

// calmChunk is the length of the chunks a serve step is sent in; the
// hypervisor's steal is read around each.
const calmChunk = 250 * time.Millisecond

// calmSamples returns the samples of a step due in its calm (see calm)
// chunks, in the order of samples. steal[k] is the stolen share of CPU
// time during chunk k, which holds the requests due from k to k+1
// chunks into the step.
func calmSamples(samples []sample, steal []float64) []sample {
	keep := calm(steal)
	var out []sample
	for _, s := range samples {
		if k := int(s.Due / calmChunk); k < len(keep) && keep[k] {
			out = append(out, s)
		}
	}
	return out
}

// meets reports whether the step met lim. A p99 resting on fewer than
// minTail samples beyond it does not meet any limit.
func (st stepStats) meets(lim slo) bool {
	if st.Requests == 0 || !st.LatencyP99.OK || st.LatencyP99.Value > lim.P99Ms {
		return false
	}
	return float64(st.Failed)/float64(st.Requests) <= lim.FailFrac && !st.Backlog
}

// runLadder runs step at each rate in turn and stops after the first
// step that misses lim, so overload beyond the capacity does not run
// (and does not inflate the failure count).
func runLadder(rates []float64, lim slo, step func(rate float64) stepStats) []stepStats {
	var out []stepStats
	for _, r := range rates {
		st := step(r)
		out = append(out, st)
		if !st.meets(lim) {
			break
		}
	}
	return out
}

// maxAtSLO returns the highest step of a ladder that met lim with every
// lower step meeting it too.
func maxAtSLO(steps []stepStats, lim slo) (stepStats, bool) {
	var best stepStats
	ok := false
	for _, st := range steps {
		if !st.meets(lim) {
			break
		}
		best, ok = st, true
	}
	return best, ok
}

// loadClient is the generator's set of connections to one daemon: one
// http.Client per connection, each allowed a single connection, so
// requests beyond the connection count queue in the generator where
// their delay is measured.
type loadClient struct {
	base    string
	clients []*http.Client
}

func newLoadClient(base string, conns int, timeout time.Duration) *loadClient {
	c := &loadClient{base: base}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c.clients = append(c.clients, &http.Client{Transport: tr, Timeout: timeout})
	}
	return c
}

func (c *loadClient) close() {
	for _, cl := range c.clients {
		cl.CloseIdleConnections()
	}
}

// hook is an action fired at a fixed offset into a step.
type hook struct {
	At time.Duration
	Fn func()
}

// runStep sends qs open loop: request i is due i/rate seconds after the
// step starts, whether or not earlier requests have been answered. Every
// keepEvery-th response body is kept. Hooks run on their own goroutines
// at their offsets; runStep returns once every request and hook is done,
// with the samples and the step's start.
func runStep(ctx context.Context, c *loadClient, qs []query, rate float64, keepEvery int, hooks []hook) ([]sample, time.Time) {
	samples := make([]sample, len(qs))
	work := make(chan int, len(qs)) // one slot per request: the dispatcher never blocks on a busy connection
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range c.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for i := range work {
				s := &samples[i]
				s.Sent = time.Since(start)
				status, cache, body := c.get(ctx, cl, qs[i].path())
				s.Done = time.Since(start)
				s.Status, s.Cache = status, cache
				if keepEvery > 0 && i%keepEvery == 0 {
					s.Body = body
				}
			}
		}(cl)
	}
	for _, h := range hooks {
		wg.Add(1)
		go func(h hook) {
			defer wg.Done()
			t := time.NewTimer(h.At - time.Since(start))
			defer t.Stop()
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			h.Fn()
		}(h)
	}
	for i := range qs {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].Route = qs[i].Route
		samples[i].Due = due
		samples[i].Dispatched = time.Since(start)
		work <- i
	}
	close(work)
	wg.Wait()
	return samples, start
}

// get performs one GET and returns its status (0 on a transport error
// or timeout), X-Cache header and body.
func (c *loadClient) get(ctx context.Context, cl *http.Client, path string) (int, string, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, "", nil
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, "", nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}
