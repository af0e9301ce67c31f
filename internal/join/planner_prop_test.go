package join

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins the adaptive planner's exactness contract: for every filter
// method, threshold and serving path (static snapshot, post-mutation
// snapshot, 3-shard fan-out), queries executed under PlanAuto must return
// bit-identical results to the fixed build-time configuration. The planner
// is only allowed to change how much the candidate phase over-admits — never
// what survives exact verification.

// plannerScenario builds an auto-planned index and a fixed-plan twin over the
// same corpus and mutation script, returning snapshots of both.
type plannerScenario struct {
	name  string
	build func(j *Joiner, recs []strutil.Record, opts Options) (auto, fixed *ShardedView)
}

func plannerScenarios() []plannerScenario {
	fixedOpts := func(opts Options) Options {
		opts.Plan = PlanFixed
		return opts
	}
	return []plannerScenario{
		{"static", func(j *Joiner, recs []strutil.Record, opts Options) (*ShardedView, *ShardedView) {
			return j.BuildShardedIndex(recs, 1, opts, DynamicOptions{}).Snapshot(),
				j.BuildShardedIndex(recs, 1, fixedOpts(opts), DynamicOptions{}).Snapshot()
		}},
		{"mutated", func(j *Joiner, recs []strutil.Record, opts Options) (*ShardedView, *ShardedView) {
			// MaxSegments 2 forces compactions mid-script, so the planned
			// paths run against rebuilt snapshots.
			ad := j.BuildShardedIndex(recs, 1, opts, DynamicOptions{MaxSegments: 2})
			fd := j.BuildShardedIndex(recs, 1, fixedOpts(opts), DynamicOptions{MaxSegments: 2})
			mutate(ad, 7)
			mutate(fd, 7)
			return ad.Snapshot(), fd.Snapshot()
		}},
		{"sharded", func(j *Joiner, recs []strutil.Record, opts Options) (*ShardedView, *ShardedView) {
			ax := j.BuildShardedIndex(recs, 3, opts, DynamicOptions{})
			fx := j.BuildShardedIndex(recs, 3, fixedOpts(opts), DynamicOptions{})
			mutate(ax, 7)
			mutate(fx, 7)
			return ax.Snapshot(), fx.Snapshot()
		}},
	}
}

func sortMatches(ms []QueryMatch) []QueryMatch {
	sort.Slice(ms, func(a, b int) bool { return ms[a].Record < ms[b].Record })
	return ms
}

func matchesEqual(a, b []QueryMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlannedEqualsFixed is the exactness property test: across 3 filters ×
// θ ∈ {0.7, 0.8, 0.9} × {static, post-mutation, sharded}, every query path
// (ProbeRecord, QueryTopK, batch Probe) must produce identical results under
// PlanAuto and PlanFixed — both per-request (same snapshot, flipped
// QueryOpts.Plan) and across twin indexes built with Options.Plan flipped.
func TestPlannedEqualsFixed(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 101)
	probe := propCorpus(120, 202)
	ctx := context.Background()
	decisionKinds := map[string]bool{}
	var totalPlans int64

	for _, sc := range plannerScenarios() {
		for _, opts := range propConfigs() {
			name := fmt.Sprintf("%s/%v/θ=%v", sc.name, opts.Method, opts.Theta)
			av, fv := sc.build(j, recs, opts)

			// Pinned probe-side configurations (QueryOpts.ProbeTau/ProbeMethod)
			// are single points of the planner's search space and must agree
			// with it too; cycling by probe index keeps the grid cheap. A
			// ProbeTau above the build τ exercises the soundness clamp.
			pinned := []QueryOpts{{ProbeMethod: pebble.UFilter, ProbeTau: 3}}
			for tau := 1; tau <= opts.Tau+1; tau++ {
				pinned = append(pinned,
					QueryOpts{ProbeMethod: pebble.AUHeuristic, ProbeTau: tau},
					QueryOpts{ProbeMethod: pebble.AUDP, ProbeTau: tau})
			}

			for i, rec := range probe {
				am, err := av.ProbeRecordCtx(ctx, rec.Tokens, QueryOpts{})
				if err != nil {
					t.Fatalf("%s: auto ProbeRecord: %v", name, err)
				}
				pm, err := av.ProbeRecordCtx(ctx, rec.Tokens, QueryOpts{Plan: PlanFixed})
				if err != nil {
					t.Fatalf("%s: fixed-opt ProbeRecord: %v", name, err)
				}
				fm, err := fv.ProbeRecordCtx(ctx, rec.Tokens, QueryOpts{})
				if err != nil {
					t.Fatalf("%s: fixed-index ProbeRecord: %v", name, err)
				}
				sortMatches(am)
				if !matchesEqual(am, sortMatches(pm)) {
					t.Fatalf("%s probe %d: auto vs per-request fixed differ:\nauto  %v\nfixed %v", name, i, am, pm)
				}
				if !matchesEqual(am, sortMatches(fm)) {
					t.Fatalf("%s probe %d: auto vs fixed-built index differ:\nauto  %v\nfixed %v", name, i, am, fm)
				}
				qo := pinned[i%len(pinned)]
				mm, err := av.ProbeRecordCtx(ctx, rec.Tokens, qo)
				if err != nil {
					t.Fatalf("%s: pinned ProbeRecord %+v: %v", name, qo, err)
				}
				if !matchesEqual(am, sortMatches(mm)) {
					t.Fatalf("%s probe %d: auto vs pinned %v/τ%d differ:\nauto   %v\npinned %v",
						name, i, qo.ProbeMethod, qo.ProbeTau, am, mm)
				}

				// Top-k is deterministic under ties (similarity desc, ID asc),
				// so planned and fixed runs must agree element-wise.
				ak, err := av.QueryTopKCtx(ctx, rec.Tokens, 5, QueryOpts{})
				if err != nil {
					t.Fatalf("%s: auto QueryTopK: %v", name, err)
				}
				pk, err := av.QueryTopKCtx(ctx, rec.Tokens, 5, QueryOpts{Plan: PlanFixed})
				if err != nil {
					t.Fatalf("%s: fixed QueryTopK: %v", name, err)
				}
				if !matchesEqual(ak, pk) {
					t.Fatalf("%s probe %d: top-k differs:\nauto  %v\nfixed %v", name, i, ak, pk)
				}
			}

			// Batch probes: one planned decision for the whole batch on the
			// auto index, build-time configuration on the twin.
			ap, astats := av.Probe(probe)
			fp, fstats := fv.Probe(probe)
			sortPairs(ap)
			sortPairs(fp)
			if len(ap) != len(fp) {
				t.Fatalf("%s: batch Probe sizes differ: auto %d fixed %d", name, len(ap), len(fp))
			}
			for i := range ap {
				if ap[i] != fp[i] {
					t.Fatalf("%s: batch Probe pair %d differs: auto %+v fixed %+v", name, i, ap[i], fp[i])
				}
			}
			if astats.Results != fstats.Results {
				t.Fatalf("%s: batch Probe result counts differ: auto %d fixed %d", name, astats.Results, fstats.Results)
			}

			st := av.Stats()
			totalPlans += st.Plans
			for k := range st.PlanDecisions {
				decisionKinds[k] = true
			}
			if fst := fv.Stats(); fst.Plans != 0 {
				t.Errorf("%s: fixed-built index recorded %d plans", name, fst.Plans)
			}
		}
	}

	// Vacuity guards: the grid must actually have planned, and the planner
	// must have exercised more than one configuration somewhere — otherwise
	// the equivalence above is trivially true.
	if totalPlans == 0 {
		t.Fatal("no queries were planned; the property test is vacuous")
	}
	if len(decisionKinds) < 2 {
		t.Fatalf("planner only ever chose %v; expected the grid to exercise multiple configurations", decisionKinds)
	}
}

// TestPlannedQueriesRaceHammer mixes planned queries on live snapshots with
// concurrent inserts, removals and forced rebuilds. Run under -race it pins
// the lock-free feedback table (atomic EWMA updates, epoch swaps, re-anchors
// from the rebuild path) against the query fan-out; in any mode it asserts
// the planner kept counting and queries kept answering.
func TestPlannedQueriesRaceHammer(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(400, 303)
	probe := propCorpus(40, 404)
	sx := j.BuildShardedIndex(recs, 3,
		Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{MaxSegments: 2})
	ctx := context.Background()

	const workers, iters = 4, 120
	var qwg, mwg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, workers)

	mwg.Add(1)
	go func() { // mutator: churn until the queriers are done
		defer mwg.Done()
		rng := rand.New(rand.NewSource(505))
		var live []int
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			raw := fmt.Sprintf("tok%02d tok%02d hammer%d", rng.Intn(60), rng.Intn(60), i)
			live = append(live, sx.InsertBatch([]string{raw})...)
			if len(live) > 16 {
				k := rng.Intn(len(live))
				sx.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(606 + w)))
			for i := 0; i < iters; i++ {
				sv := sx.Snapshot()
				rec := probe[rng.Intn(len(probe))]
				if _, err := sv.QueryTopKCtx(ctx, rec.Tokens, 5, QueryOpts{}); err != nil {
					errs <- fmt.Errorf("worker %d QueryTopK: %w", w, err)
					return
				}
				if _, err := sv.ProbeRecordCtx(ctx, rec.Tokens, QueryOpts{Workers: 2}); err != nil {
					errs <- fmt.Errorf("worker %d ProbeRecord: %w", w, err)
					return
				}
				if i%16 == 0 {
					sv.Probe(probe[:8])
				}
			}
		}(w)
	}

	qwg.Wait()
	close(stop)
	mwg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	st := sx.Stats()
	if st.Plans == 0 {
		t.Fatal("hammer ran without a single planned query")
	}
	if st.Records == 0 || st.Live == 0 {
		t.Fatalf("index state degenerate after hammer: %+v", st)
	}
}
