package join

import (
	"context"
	"math/rand"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/strutil"
)

// benchCorpus generates a synthetic collection with heavy key overlap so the
// filtering stage has real posting lists to traverse.
func benchCorpus(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki",
		"helsingki", "cake", "apple", "gateau", "bakery", "db", "database",
		"systems", "course", "machine", "learning", "market", "corner", "town"}
	raws := make([]string, n)
	for i := range raws {
		l := 3 + rng.Intn(3)
		toks := make([]string, l)
		for k := range toks {
			toks[k] = vocab[rng.Intn(len(vocab))]
		}
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// BenchmarkJoinFilterPhase measures the signature + filter stages only
// (FilterStats): the part of the pipeline the interned-ID refactor targets.
func BenchmarkJoinFilterPhase(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.FilterStats(s, t, opts)
	}
}

// BenchmarkJoinRS measures the full R×S join end to end.
func BenchmarkJoinRS(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(s, t, opts)
	}
}

// BenchmarkJoinSelf measures the self-join path.
func BenchmarkJoinSelf(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 3)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.SelfJoin(s, opts)
	}
}

// filterCorpus generates records of 10 distinct tokens drawn from a
// 100-word random vocabulary: every token's posting list is dense (≈ 40 of
// 400 records), so the candidate phase is bound by posting accumulation
// rather than by emitting the surviving pairs, which the τ=12 overlap
// constraint prunes hard.
func filterCorpus(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 100)
	vrng := rand.New(rand.NewSource(99))
	for i := range vocab {
		word := make([]byte, 7)
		for c := range word {
			word[c] = byte('a' + vrng.Intn(26))
		}
		vocab[i] = string(word)
	}
	raws := make([]string, n)
	for i := range raws {
		toks := make([]string, 0, 10)
		for _, v := range rng.Perm(len(vocab))[:10] {
			toks = append(toks, vocab[v])
		}
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// filterPhaseBench measures the candidate phase alone on the 400×400
// workload: the index and probe signatures are built once, and each
// iteration re-runs the count filter over every probe record sequentially
// (workers=1, so the number is a per-core filter throughput, not a
// parallelism measure).
func filterPhaseBench(b *testing.B, classicLayout bool) {
	j := NewJoiner(paperContext())
	s := filterCorpus(400, 1)
	t := filterCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 12, Method: pebble.AUDP, ClassicFilter: classicLayout}
	ix := j.buildIndex(s, j.BuildOrder(s, t), opts, nil)
	if !classicLayout && ix.inv.DenseKeys() == 0 {
		b.Fatal("bench corpus produced no dense posting lists; hybrid path unexercised")
	}
	sigs := j.signatures(t, ix.sel, opts.Method, ix.tau)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, _, err := ix.candidates(context.Background(), sigs, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("empty candidate set")
		}
	}
}

// BenchmarkFilterPhase is the hybrid (bitmap-block) candidate phase — the
// perf-gated headline number of the CI bench job.
func BenchmarkFilterPhase(b *testing.B) { filterPhaseBench(b, false) }

// BenchmarkFilterPhaseClassic is the same workload with the slice-only
// classic layout (Options.ClassicFilter), the baseline the hybrid speedup
// is quoted against.
func BenchmarkFilterPhaseClassic(b *testing.B) { filterPhaseBench(b, true) }

// BenchmarkVerify measures the verification phase alone on the 400×400
// workload: candidates are generated once, prepared records are built once
// per side, and each iteration re-verifies every candidate through the
// thresholded prepared engine (the target of the prepare-once refactor).
func BenchmarkVerify(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	ix := j.buildIndex(s, j.BuildOrder(s, t), opts, nil)
	sigs := j.signatures(t, ix.sel, opts.Method, ix.tau)
	prepT := prepareRecords(t, ix.calc)
	cands, _, _ := ix.candidates(context.Background(), sigs, false, opts.workers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.verify(s, t, ix.prepared, prepT, cands, ix.calc, opts)
	}
}

// BenchmarkJoinSeq measures the streaming join on a result-heavy workload
// (~120k matches): matches are consumed as yielded, never buffered, so the
// reported allocs/op pin the streaming path's memory contract against
// BenchmarkJoinBatch (same workload through batch Join, which additionally
// buffers and sorts the full result).
func BenchmarkJoinSeq(b *testing.B) {
	j := NewJoiner(paperContext())
	s := denseCorpus(600, 3, 5)
	t := denseCorpus(600, 3, 6)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, err := range j.JoinSeq(context.Background(), s, t, opts) {
			if err != nil {
				b.Fatal(err)
			}
			count++
		}
		if count == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkJoinBatch is BenchmarkJoinSeq's baseline: the identical workload
// through the buffering batch Join.
func BenchmarkJoinBatch(b *testing.B) {
	j := NewJoiner(paperContext())
	s := denseCorpus(600, 3, 5)
	t := denseCorpus(600, 3, 6)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, _ := j.Join(s, t, opts)
		if len(pairs) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkQuery measures single-record serving through the path a 1-shard
// daemon runs: plan, signature, count filter, query preparation and
// thresholded verification per ShardedView.ProbeRecord call.
func BenchmarkQuery(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	v := j.BuildShardedIndex(s, 1, opts, DynamicOptions{}).Snapshot()
	probe := benchCorpus(64, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ProbeRecord(probe[i%len(probe)].Tokens)
	}
}

// verifyTopKBench serves top-k queries against a 2000-record 1-shard index
// (large candidate sets, so the verify phase dominates); opts toggles the
// rising-threshold scheduler and the msim memo.
func verifyTopKBench(b *testing.B, opts Options) {
	j := NewJoiner(paperContext())
	s := benchCorpus(2000, 1)
	v := j.BuildShardedIndex(s, 1, opts, DynamicOptions{}).Snapshot()
	// Keep only probes with a non-empty answer so every timed op exercises
	// the verify phase (a θ=0.8 threshold leaves some of the raw pool
	// matchless, and those would measure the count filter instead).
	var probe [][]string
	for _, r := range benchCorpus(64, 9) {
		if len(v.QueryTopK(r.Tokens, 10)) > 0 {
			probe = append(probe, r.Tokens)
		}
	}
	if len(probe) < 16 {
		b.Fatalf("only %d productive probes", len(probe))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := v.QueryTopK(probe[i%len(probe)], 10); len(out) == 0 {
			b.Fatal("empty top-k result")
		}
	}
}

// BenchmarkVerifyTopK is the benchgate-gated top-k serving number: the
// rising-floor scheduler prunes candidates whose cheap upper bound cannot
// reach the heap's k-th similarity, and the memo reuses segment-pair msim
// values across candidates of one query.
func BenchmarkVerifyTopK(b *testing.B) {
	verifyTopKBench(b, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP})
}

// BenchmarkVerifyTopKNoPrune is the same workload through the plain verify
// loop (Options.NoVerifyPrune + NoVerifyMemo) — the ratio sibling that makes
// the gate machine-independent.
func BenchmarkVerifyTopKNoPrune(b *testing.B) {
	verifyTopKBench(b, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP,
		NoVerifyPrune: true, NoVerifyMemo: true})
}

// mixedProbes builds the bimodal short/long probe pool of the planner
// benchmarks: half 2-token fragments of dense vocabulary (where a small τ
// over-admits little and saves posting scans), half three records
// concatenated (long signatures where the build-time configuration pays for
// every prefix token).
func mixedProbes(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	pool := benchCorpus(4*n, seed+1)
	raws := make([]string, n)
	for i := range raws {
		if i%2 == 0 {
			toks := pool[rng.Intn(len(pool))].Tokens
			raws[i] = strutil.JoinTokens(toks[:2])
		} else {
			var toks []string
			for k := 0; k < 3; k++ {
				toks = append(toks, pool[rng.Intn(len(pool))].Tokens...)
			}
			raws[i] = strutil.JoinTokens(toks)
		}
	}
	return strutil.NewCollection(raws)
}

// BenchmarkPlanOverhead measures the planner's marginal work per query —
// the τ-sweep of heuristic cuts, the posting-mass prefix sums, the cost
// model and the final signature selection — on prepared probes (query
// preparation is paid identically by the fixed path) and enforces the
// < 50µs/op planning budget the adaptive path promises.
func BenchmarkPlanOverhead(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(2000, 1)
	opts := Options{Theta: 0.8, Tau: 3, Method: pebble.AUDP}
	v := j.BuildShardedIndex(s, 1, opts, DynamicOptions{}).Snapshot()
	probe := mixedProbes(64, 9)
	pres := make([]pebble.Presig, len(probe))
	for i, rec := range probe {
		pres[i] = v.gen.sel.Prepare(rec.Tokens)
	}
	pl := v.sx.planner
	// Steady state is the loop a serving process actually runs: every plan
	// is observed, so the latency cells are measured and greedy exploitation
	// carries the traffic (with the 1-in-16 exploration slot). Without the
	// feedback half the forced initial sampling never completes and every
	// plan re-measures an arm — a state no real workload stays in.
	observe := func(d planner.Decision) { pl.Observe(d, 8, 8, 1, 8_000, 100_000) }
	for i := 0; i < 256; i++ {
		observe(pl.Plan(v.gen.sel, pres[i%len(pres)], v.listLen, v.totalRecords()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pl.Plan(v.gen.sel, pres[i%len(pres)], v.listLen, v.totalRecords())
		if !d.Planned {
			b.Fatal("plan fell back in the overhead benchmark")
		}
		observe(d)
	}
	b.StopTimer()
	if ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N); ns > 50_000 {
		b.Fatalf("planning overhead %.0f ns/op exceeds the 50µs budget", ns)
	}
}

// queryPlanBench serves the bimodal workload single-record at a time under
// one planning mode; BenchmarkQueryPlanned / BenchmarkQueryFixed are the
// benchgate-gated pair whose ratio pins the planner's latency win.
func queryPlanBench(b *testing.B, qo QueryOpts) {
	j := NewJoiner(paperContext())
	s := benchCorpus(2000, 1)
	opts := Options{Theta: 0.8, Tau: 3, Method: pebble.AUDP}
	v := j.BuildShardedIndex(s, 1, opts, DynamicOptions{}).Snapshot()
	probe := mixedProbes(64, 9)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ProbeRecordCtx(ctx, probe[i%len(probe)].Tokens, qo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPlanned is the adaptive path: every probe is planned.
func BenchmarkQueryPlanned(b *testing.B) { queryPlanBench(b, QueryOpts{}) }

// BenchmarkQueryFixed is the same workload pinned to the build-time
// configuration (the pre-planner behaviour).
func BenchmarkQueryFixed(b *testing.B) { queryPlanBench(b, QueryOpts{Plan: PlanFixed}) }

// BenchmarkQuerySharded is BenchmarkQuery against a GOMAXPROCS-sharded
// index: the same single-record workload, served through the fan-out
// snapshot (one signature selection, per-shard count filters, merged
// results).
func BenchmarkQuerySharded(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	sx := j.BuildShardedIndex(s, 0, opts, DynamicOptions{})
	probe := benchCorpus(64, 9)
	v := sx.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ProbeRecord(probe[i%len(probe)].Tokens)
	}
}
