package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request of an open-loop phase: it is due at Due
// (measured from the phase start) whatever happened to earlier requests.
type op struct {
	Due   time.Duration
	Write bool
	Index int // position in the read or write stream
}

// schedule merges a read stream at readRate and a write stream at writeRate
// (0 disables it) over dur into one due-ordered list.
func schedule(readRate, writeRate float64, dur time.Duration) []op {
	var ops []op
	add := func(rate float64, write bool) {
		if rate <= 0 {
			return
		}
		n := int(math.Floor(rate * dur.Seconds()))
		for i := 0; i < n; i++ {
			ops = append(ops, op{Due: time.Duration(float64(i) / rate * float64(time.Second)), Write: write, Index: i})
		}
	}
	add(readRate, false)
	add(writeRate, true)
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].Due < ops[b].Due })
	return ops
}

// sample is what the generator observed for one scheduled request. Latency
// is charged from the due time, so a request that waited behind a stalled
// one carries that wait; Late is how long after its due time it was sent.
type sample struct {
	Op      op
	Latency time.Duration
	Late    time.Duration
	Err     error
	Sent    bool // false: still unsent when the phase's drain deadline passed
}

// runOpenLoop sends ops on their schedule over conns connections: each
// connection takes the next unsent op, waits for its due time if it is
// still ahead, and sends it. A connection busy with a slow request leaves
// the ops behind it to the others or to itself later, late — that lateness
// is part of their latency. Ops still unsent drainAfter past the end of
// the schedule are abandoned and reported unsent.
func runOpenLoop(ctx context.Context, ops []op, conns int, drainAfter time.Duration, do func(conn int, o op) error) []sample {
	out := make([]sample, len(ops))
	for i := range out {
		out[i].Op = ops[i]
	}
	if len(ops) == 0 {
		return out
	}
	start := time.Now()
	stopAt := start.Add(ops[len(ops)-1].Due + drainAfter)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				due := start.Add(ops[i].Due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(stopAt) {
					return
				}
				err := do(c, ops[i])
				out[i] = sample{Op: ops[i], Latency: time.Since(due), Late: sent.Sub(due), Err: err, Sent: true}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// loadSummary condenses one phase's samples of one kind.
type loadSummary struct {
	Attempted int
	Failed    int       // transport errors, non-2xx answers and unsent ops
	LatMs     []float64 // latency from due time, successful requests only
	LateMs    []float64 // send lateness of sent requests, in schedule order
}

func summarize(samples []sample, writes bool) loadSummary {
	var s loadSummary
	for _, x := range samples {
		if x.Op.Write != writes {
			continue
		}
		s.Attempted++
		if !x.Sent || x.Err != nil {
			s.Failed++
		}
		if x.Sent {
			s.LateMs = append(s.LateMs, ms(x.Late))
			if x.Err == nil {
				s.LatMs = append(s.LatMs, ms(x.Latency))
			}
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// backlogGrowthMs is how much later, on average, the last third of a step's
// requests may be sent than its first third before the step counts as
// falling behind its schedule.
const backlogGrowthMs = 5.0

// backlogGrowing reports whether the generator fell further behind its
// schedule as the step went on: the mean lateness of the final third of
// the requests exceeds that of the first third by more than
// backlogGrowthMs.
func backlogGrowing(lateMs []float64) bool {
	n := len(lateMs) / 3
	if n == 0 {
		return false
	}
	return mean(lateMs[len(lateMs)-n:])-mean(lateMs[:n]) > backlogGrowthMs
}

// stepPercentile is the latency percentile a ladder step is judged on.
const stepPercentile = 90

// stepVerdict judges one ladder step: it passes when every request was sent
// and answered, the stepPercentile latency is within limitMs, and the
// backlog did not grow.
func stepVerdict(s loadSummary, limitMs float64) (pass bool, tailMs float64) {
	if beyond(len(s.LatMs), stepPercentile) < minBeyond {
		return false, 0
	}
	tailMs = percentile(s.LatMs, stepPercentile)
	return s.Failed == 0 && tailMs <= limitMs && !backlogGrowing(s.LateMs), tailMs
}

// rungResult is one ladder step as run.
type rungResult struct {
	Rate   float64 `json:"rate"`
	Pass   bool    `json:"pass"`
	TailMs float64 `json:"tail_ms"`
}

// searchLadder finds the highest passing rung among ladder[lo..hi] by
// bisection, running at most maxSteps steps. It returns that rate (0 if no
// step passed) and the steps it ran.
func searchLadder(ladder []float64, lo, hi, maxSteps int, step func(rate float64) (bool, float64)) (float64, []rungResult) {
	lo, hi = max(lo, 0), min(hi, len(ladder)-1)
	var tried []rungResult
	best := 0.0
	for lo <= hi && len(tried) < maxSteps {
		mid := (lo + hi + 1) / 2
		pass, tail := step(ladder[mid])
		tried = append(tried, rungResult{Rate: ladder[mid], Pass: pass, TailMs: tail})
		if pass {
			best = ladder[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, tried
}

// geometricLadder is the fixed rate ladder lo, lo·ratio, … up to hi.
func geometricLadder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0001; r *= ratio {
		out = append(out, math.Round(r*10)/10)
	}
	return out
}

// rungBelow is the index of the highest rung at or below rate (0 if none).
func rungBelow(ladder []float64, rate float64) int {
	i := sort.SearchFloat64s(ladder, rate+1e-9) - 1
	return max(i, 0)
}
