package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func msd(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

// steady builds n successful samples due every 1 ms, each sent on time
// and answered after rtt ms.
func steady(n int, rtt float64) []sample {
	s := make([]sample, n)
	for i := range s {
		due := msd(float64(i))
		s[i] = sample{Due: due, Dispatched: due, Sent: due, Done: due + msd(rtt), Status: 200, Cache: "hit"}
	}
	return s
}

var testSLO = slo{P99Ms: 50, FailFrac: 0.01, BacklogMs: 20}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p := percentile(xs, 0.99); p.OK || p.Beyond != 9 {
		t.Fatalf("999 samples: p99 = %+v, want not OK with 9 beyond", p)
	}
	xs = append(xs, 999)
	p := percentile(xs, 0.99)
	if !p.OK || p.Beyond != 10 || p.N != 1000 || p.Value != 989 {
		t.Fatalf("1000 samples: p99 = %+v, want 989 with 10 beyond", p)
	}
}

func TestLatencyIsTimedFromDue(t *testing.T) {
	s := steady(2000, 1)
	// A stall: requests 100..199 wait 30 ms for a connection. Their round
	// trip stays 1 ms, but a user waited 31 ms for each.
	for i := 100; i < 200; i++ {
		s[i].Sent += msd(30)
		s[i].Done += msd(30)
	}
	st := summarize(1000, s, testSLO)
	if st.LatencyP99.Value < 30 {
		t.Fatalf("p99 from due = %v ms, want >= 30 (the stall must show)", st.LatencyP99.Value)
	}
	if got := percentile(sortedCopy(st.RTTHitMs), 0.99).Value; got > 1.001 {
		t.Fatalf("p99 round trip = %v ms, want 1", got)
	}
	if st.Backlog {
		t.Fatal("a stall that recovers is not a growing backlog")
	}
}

func TestMissLatencyIsSeparate(t *testing.T) {
	// One request in five misses the cache and takes 4 ms; the rest hit
	// in 1 ms. The overall median stays among the hits, the miss median
	// is the misses' own.
	s := steady(2000, 1)
	for i := 0; i < len(s); i += 5 {
		s[i].Done += msd(3)
		s[i].Cache = "miss"
	}
	s[1].Cache = "coalesced"
	st := summarize(1000, s, testSLO)
	if st.LatencyP50.Value != 1 {
		t.Fatalf("p50 = %v ms, want 1 (a hit)", st.LatencyP50.Value)
	}
	if st.MissP50.N != 401 || st.MissP50.Value != 4 {
		t.Fatalf("miss p50 = %+v, want 4 ms over 401 samples", st.MissP50)
	}
}

func TestCalmSamplesKeepLeastStolenChunks(t *testing.T) {
	// Four 250 ms chunks; the hypervisor steals during the middle two,
	// which answer in 5 ms instead of 1 ms.
	s := steady(1050, 1)
	for i := 250; i < 750; i++ {
		s[i].Done += msd(4)
	}
	kept := calmSamples(s, []float64{0, 0.2, 0.1, 0})
	if len(kept) != 500 || kept[0].Due != 0 || kept[250].Due != msd(750) {
		t.Fatalf("kept %d samples: want chunks 0 and 3, and none due after the last chunk", len(kept))
	}
	if st := summarize(1000, kept, testSLO); st.LatencyP50.Value != 1 {
		t.Fatalf("calm p50 = %v ms, want 1", st.LatencyP50.Value)
	}
	if calmSamples(s, nil) != nil {
		t.Fatal("no chunks: no samples")
	}
}

func TestLateReportsGeneratorLag(t *testing.T) {
	s := steady(2000, 1)
	for i := 0; i < 100; i++ {
		s[i].Dispatched += msd(5)
	}
	st := summarize(1000, s, testSLO)
	if !st.LateP99.OK || st.LateP99.Value != 5 {
		t.Fatalf("late p99 = %+v, want 5 ms", st.LateP99)
	}
}

func TestBacklogDetection(t *testing.T) {
	// Each request waits 0.1 ms longer than the one before: by the end
	// of the step the queue is 200 ms deep and still growing.
	s := steady(2000, 1)
	for i := range s {
		d := msd(0.1 * float64(i))
		s[i].Sent += d
		s[i].Done += d
	}
	st := summarize(1000, s, testSLO)
	if !st.Backlog {
		t.Fatalf("queue end %v ms: want a growing backlog", st.QueueEndMs)
	}
	if st.meets(testSLO) {
		t.Fatal("a step with a growing backlog must miss the SLO")
	}
}

func TestFailuresCountAgainstLatency(t *testing.T) {
	s := steady(2000, 1)
	for i := 0; i < 40; i++ {
		s[i*50].Status = 503
	}
	s[1].Status = 0 // timeout
	s[2].Wrong = true
	st := summarize(1000, s, testSLO)
	if st.Failed != 42 {
		t.Fatalf("failed = %d, want 42", st.Failed)
	}
	if st.meets(testSLO) {
		t.Fatal("2.1% failures must miss a 1% limit")
	}
	if st.Hits != 2000-42 {
		t.Fatalf("hits = %d, want only successful answers counted", st.Hits)
	}
}

func TestLadderStopsAtFirstMiss(t *testing.T) {
	var ran []float64
	step := func(rate float64) stepStats {
		ran = append(ran, rate)
		st := summarize(rate, steady(2000, 1), testSLO)
		if rate >= 300 {
			st.LatencyP99.Value = 500
		}
		return st
	}
	steps := runLadder([]float64{100, 200, 300, 400}, testSLO, step)
	if len(ran) != 3 || len(steps) != 3 {
		t.Fatalf("ran %v: want the ladder to stop after the first missing step", ran)
	}
	best, ok := maxAtSLO(steps, testSLO)
	if !ok || best.Rate != 200 {
		t.Fatalf("max at SLO = %v (%v), want 200", best.Rate, ok)
	}
}

func TestRunStepOpenLoop(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(100 * time.Millisecond)
		}
		w.Header().Set("X-Cache", "miss")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newLoadClient(srv.URL, 1, time.Second)
	defer c.close()
	qs := newQueryMix(1, 50, 50).batch(100)
	var fired atomic.Bool
	samples, _ := runStep(context.Background(), c, qs, 200, 10, []hook{{At: 50 * time.Millisecond, Fn: func() { fired.Store(true) }}})
	if !fired.Load() {
		t.Fatal("hook did not run")
	}
	// Request 10 (index 10) is due 5 ms after the stalled index 9: it waits
	// for the single connection, so its latency from due is ~95 ms while
	// its round trip is small.
	s := samples[10]
	if lat := s.Done - s.Due; lat < 60*time.Millisecond {
		t.Fatalf("latency from due of the request behind the stall = %v, want >= 60ms", lat)
	}
	if rtt := s.Done - s.Sent; rtt > 50*time.Millisecond {
		t.Fatalf("round trip = %v, want small", rtt)
	}
	for i, s := range samples {
		if s.Status != 200 {
			t.Fatalf("request %d: status %d", i, s.Status)
		}
		if (s.Body != nil) != (i%10 == 0) {
			t.Fatalf("request %d: body kept = %v", i, s.Body != nil)
		}
	}
}
