package main

import (
	"context"
	"testing"
	"time"
)

// The reported tail percentile always keeps at least ten samples beyond
// it, and is the highest candidate that does.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0}, {11, 0}, {50, 80}, {99, 80}, {100, 90}, {999, 98}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 1; n <= 3000; n++ {
		p := tailPercentile(n)
		if p == 0 {
			continue
		}
		if b := beyond(n, p); b < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, b)
		}
	}
	// On 1..1000 the 99th percentile is 990 and exactly ten samples
	// exceed it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	p99 := percentile(xs, 99)
	above := 0
	for _, x := range xs {
		if x > p99 {
			above++
		}
	}
	if p99 != 990 || above != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d above, want 990 with 10", p99, above)
	}
}

// A request that stalls charges its wait to the requests scheduled behind
// it: their latency runs from their due time, not their send time.
func TestDueTimeChargesStallToQueuedRequests(t *testing.T) {
	ops := schedule(100, 0, 100*time.Millisecond) // due every 10 ms
	samples := runOpenLoop(context.Background(), ops, 1, time.Second, func(_ int, o op) error {
		if o.Index == 2 {
			time.Sleep(60 * time.Millisecond) // the stall
		}
		return nil
	})
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	for _, x := range samples {
		if !x.Sent || x.Err != nil {
			t.Fatalf("op %d not sent cleanly: %+v", x.Op.Index, x)
		}
	}
	if got := samples[0].Latency; got > 20*time.Millisecond {
		t.Errorf("op 0 latency %v, want near 0", got)
	}
	if got := samples[2].Latency; got < 60*time.Millisecond {
		t.Errorf("stalled op latency %v, want >= 60ms", got)
	}
	// Op 3 was due 10 ms after the stalled op started and could only be
	// sent when it finished, ~50 ms late.
	if s := samples[3]; s.Late < 40*time.Millisecond || s.Latency < s.Late {
		t.Errorf("op 3: late %v, latency %v; want the stall's wait charged to it", s.Late, s.Latency)
	}
}

// Ops still unsent when the drain deadline passes are reported unsent and
// count as failed.
func TestUnsentOpsFail(t *testing.T) {
	ops := schedule(100, 0, 50*time.Millisecond)
	samples := runOpenLoop(context.Background(), ops, 1, 0, func(_ int, o op) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	s := summarize(samples, false)
	if s.Attempted != 5 || s.Failed == 0 {
		t.Fatalf("attempted %d failed %d, want 5 attempted and some failed", s.Attempted, s.Failed)
	}
}

// A step whose generator falls further behind its schedule fails even when
// its answered requests are fast.
func TestBacklogGrowthFailsStep(t *testing.T) {
	steady := loadSummary{Attempted: 900}
	growing := loadSummary{Attempted: 900}
	for i := 0; i < 900; i++ {
		steady.LatMs = append(steady.LatMs, 2)
		steady.LateMs = append(steady.LateMs, 0.5)
		growing.LatMs = append(growing.LatMs, 2)
		growing.LateMs = append(growing.LateMs, float64(i)/30) // 0 → 30 ms behind
	}
	if pass, _ := stepVerdict(steady, 50); !pass {
		t.Fatal("steady step failed")
	}
	if pass, _ := stepVerdict(growing, 50); pass {
		t.Fatal("step with a growing backlog passed")
	}
	slow := steady
	slow.LatMs = append([]float64(nil), steady.LatMs...)
	for i := 0; i < 30; i++ {
		slow.LatMs[i] = 80
	}
	if pass, tail := stepVerdict(slow, 50); !pass {
		t.Fatalf("3%% slow requests failed a p90 limit (tail %v ms)", tail)
	}
	for i := 0; i < 120; i++ {
		slow.LatMs[i] = 80
	}
	if pass, tail := stepVerdict(slow, 50); pass {
		t.Fatalf("step with p90 %v ms over a 50 ms limit passed", tail)
	}
}

// The ladder search reports the highest passing rung of its range.
func TestSearchLadder(t *testing.T) {
	ladder := geometricLadder(100, 400, 1.03)
	for _, limit := range []float64{100, 150, 217, 399} {
		step := func(rate float64) (bool, float64) { return rate <= limit, 0 }
		want := ladder[rungBelow(ladder, limit)]
		if got, tried := searchLadder(ladder, 0, len(ladder)-1, 20, step); got != want {
			t.Errorf("limit %v: best %v, want %v (tried %v)", limit, got, want, tried)
		}
	}
	if got, _ := searchLadder(ladder, 0, len(ladder)-1, 20, func(float64) (bool, float64) { return false, 0 }); got != 0 {
		t.Errorf("nothing passes: best %v, want 0", got)
	}
}
