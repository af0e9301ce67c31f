package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/store"
	"github.com/aujoin/aujoin/internal/strutil"
)

// replayOp is one step of a workload's read/write stream as the program
// acknowledged it: a query, an insert batch, or a remove batch.
type replayOp struct {
	query  string
	req    int64 // the query's request ID, shared with its HTTP span
	write  []string
	remove []int
}

// layerInput is what the in-process layer timings run over: the workload's
// catalog, a sample of its queries, and its acknowledged stream in order.
type layerInput struct {
	catalog []string
	queries []string
	ops     []replayOp
	tau     int
}

// Caps that keep the in-process timings to a few seconds.
const (
	layerJoinQueries   = 200  // probe records of the in-process batch join
	layerVerifyQueries = 40   // probe records of the per-pair verify timing
	layerVerifyPairs   = 4000 // verified pairs timed
)

// probeLayers times calls into each layer's public functions over the
// workload's own data and fills r.layer. Spans name the called function.
func probeLayers(r *runner, ds dataset, in layerInput) error {
	j, err := ds.internalJoiner()
	if err != nil {
		return err
	}
	tr := r.tr
	opts := join.Options{Theta: theta, Tau: in.tau, Method: pebble.AUDP}

	// strutil, pebble, core.Prepare: per catalog record.
	recs := make([]strutil.Record, len(in.catalog))
	for i, raw := range in.catalog {
		sp := tr.start("strutil.NewRecord", 0, int64(i))
		recs[i] = strutil.NewRecord(i, raw)
		sp.end()
	}
	r.layer["strutil.tokenize_us"] = median(tr.durationsUs("strutil.NewRecord"))

	order := j.BuildOrder(recs)
	sel := pebble.NewSelector(j.Generator(), order, theta)
	inv := invindex.New(order.NumKeys())
	var sigLens []float64
	for i, rec := range recs {
		sp := tr.start("pebble.signature", 0, int64(i))
		sig := sel.Select(sel.Prepare(rec.Tokens), pebble.AUDP, in.tau)
		sp.end()
		sigLens = append(sigLens, float64(sig.Len()))
		ids := make([]uint32, 0, sig.Len())
		for _, p := range sig.Pebbles {
			ids = append(ids, p.ID)
		}
		inv.Add(i, ids)
	}
	r.layer["pebble.signature_us"] = median(tr.durationsUs("pebble.signature"))
	r.layer["pebble.signature_len"] = mean(sigLens)

	calc := j.Calculator()
	prepared := make([]*core.PreparedRecord, len(recs))
	for i, rec := range recs {
		sp := tr.start("core.Prepare", 0, int64(i))
		prepared[i] = calc.Prepare(rec.Tokens)
		sp.end()
	}
	r.layer["core.prepare_us"] = median(tr.durationsUs("core.Prepare"))

	// planner.Plan per query, over the catalog's posting lengths.
	pl := planner.New(pebble.AUDP, in.tau)
	for i, q := range in.queries {
		pre := sel.Prepare(strutil.Tokenize(q))
		sp := tr.start("planner.Plan", 0, int64(i))
		pl.Plan(sel, pre, inv.ListLength, len(recs))
		sp.end()
	}
	r.layer["planner.plan_us"] = median(tr.durationsUs("planner.Plan"))

	// core.VerifyPrepared per pair that survives the O(1) size bound.
	sc := core.NewScratch()
	timed := 0
	for qi, q := range in.queries[:min(len(in.queries), layerVerifyQueries)] {
		pq := calc.Prepare(strutil.Tokenize(q))
		for _, pc := range prepared {
			if timed == layerVerifyPairs {
				break
			}
			if core.SizeRatioUpper(pq, pc) < theta {
				continue
			}
			sp := tr.start("core.VerifyPrepared", 0, int64(qi))
			calc.VerifyPrepared(pq, pc, theta, sc)
			sp.end()
			timed++
		}
	}
	r.layer["core.verify_us"] = median(tr.durationsUs("core.VerifyPrepared"))

	// One in-process batch join of the query sample against the catalog:
	// the filter's and the verifier's counters, and the verify share.
	probes := strutil.NewCollection(in.queries[:min(len(in.queries), layerJoinQueries)])
	sp := tr.start("join.Join", 0, 0)
	_, st := j.Join(probes, recs, opts)
	sp.end()
	sp.stages([]string{"pebble.signatures", "invindex.filter", "core.verify"}, []time.Duration{st.SignatureTime, st.FilterTime, st.VerifyTime})
	n := float64(max(len(probes), 1))
	r.layer["invindex.filter_ms"] = ms(st.FilterTime)
	r.layer["invindex.postings_per_probe"] = float64(st.ProcessedPairs) / n
	r.layer["invindex.candidates_per_probe"] = float64(st.Candidates) / n
	r.layer["invindex.results_per_candidate"] = float64(st.Results) / float64(max(st.Candidates, 1))
	r.layer["core.verify_share"] = ratio(median(tr.durationsUs("core.verify")), median(tr.durationsUs("join.Join")))
	r.layer["join.unstaged_ms"] = median(tr.selfTimesUs("join.Join")) / 1e3
	r.layer["core.verified_per_candidate"] = float64(st.VerifiedCandidates) / float64(max(st.Candidates, 1))
	r.layer["core.memo_hits_per_verified"] = float64(st.MemoHits) / float64(max(st.VerifiedCandidates, 1))

	// join: the public index build, with its allocations.
	pj, err := ds.publicJoiner()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.start("aujoin.IndexWith", 0, 0)
	t0 := time.Now()
	pj.IndexWith(in.catalog, aujoin.JoinOptions{Theta: theta, Tau: in.tau, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	r.layer["join.build_s"] = time.Since(t0).Seconds()
	sp.end()
	runtime.ReadMemStats(&m1)
	r.layer["join.build_allocs"] = float64(m1.Mallocs - m0.Mallocs)

	return replayLayers(r, j, opts, recs, in)
}

// replayLayers replays the workload's acknowledged stream against an
// in-process index while logging every write to a WAL, then restarts from
// the initial snapshot plus that WAL, the way a restarted daemon does.
func replayLayers(r *runner, j *join.Joiner, opts join.Options, recs []strutil.Record, in layerInput) error {
	tr := r.tr
	dir := filepath.Join(r.dir, "layer-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, snap, _, err := store.Open(store.OS, dir)
	if err != nil {
		return err
	}
	if snap != nil {
		st.Close()
		return fmt.Errorf("layer store %s is not empty", dir)
	}
	sx := j.BuildShardedIndex(recs, 1, opts, join.DynamicOptions{})
	base := sx.CaptureSnapshot()
	if err := st.Commit(base); err != nil {
		st.Close()
		return err
	}
	walPath := filepath.Join(dir, fmt.Sprintf("wal-%d.aujw", st.Seq()))
	baseBytes := base.Encode()

	var userBytes int
	for i, o := range in.ops {
		req := int64(i)
		switch {
		case o.write != nil:
			sp := tr.start("store.Append", 0, req)
			err := st.Append(store.WalEntry{Op: store.OpInsert, Raws: o.write})
			sp.end()
			if err != nil {
				st.Close()
				return err
			}
			sp = tr.start("join.InsertBatch", 0, req)
			sx.InsertBatch(o.write)
			sp.end()
			for _, w := range o.write {
				userBytes += len(w)
			}
		case o.remove != nil:
			ids := make([]uint64, len(o.remove))
			for k, id := range o.remove {
				ids[k] = uint64(id)
			}
			sp := tr.start("store.Append", 0, req)
			err := st.Append(store.WalEntry{Op: store.OpRemove, IDs: ids})
			sp.end()
			if err != nil {
				st.Close()
				return err
			}
			sx.RemoveBatch(o.remove)
		default:
			sp := tr.start("join.QueryTopKCtx", 0, o.req)
			_, err := sx.Snapshot().QueryTopKCtx(r.ctx, strutil.Tokenize(o.query), topK, join.QueryOpts{})
			sp.end()
			if err != nil {
				st.Close()
				return err
			}
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	qus := tr.durationsUs("join.QueryTopKCtx")
	r.layer["join.query_us_p50"] = median(qus)
	r.layer["join.query_us_p99"] = percentile(qus, 99)
	r.layer["join.insert_us"] = median(tr.durationsUs("join.InsertBatch"))
	r.layer["store.wal_append_ms"] = median(tr.durationsUs("store.Append")) / 1e3
	stats := sx.Stats()
	r.layer["join.rebuilds"] = float64(stats.Rebuilds)
	pause := 0.0
	for _, p := range sx.RebuildPauses() {
		pause = max(pause, ms(p))
	}
	r.layer["join.rebuild_pause_ms_max"] = pause
	wal, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	r.layer["store.wal_bytes_per_user_byte"] = float64(len(wal)) / float64(max(userBytes, 1))

	sp := tr.start("store.Snapshot.Encode", 0, 0)
	t0 := time.Now()
	final := sx.CaptureSnapshot().Encode()
	r.layer["store.encode_s"] = time.Since(t0).Seconds()
	sp.end()
	r.layer["store.snapshot_bytes_per_record"] = float64(len(final)) / float64(max(stats.Live, 1))

	// Restart: decode the base snapshot, restore the index, replay the WAL.
	sp = tr.start("store.Decode", 0, 0)
	t0 = time.Now()
	decoded, err := store.Decode(baseBytes)
	r.layer["store.decode_s"] = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := cpuSeconds()
	sp = tr.start("join.RestoreShardedIndex", 0, 0)
	t0 = time.Now()
	rx, err := j.RestoreShardedIndex(decoded, join.DynamicOptions{})
	r.layer["store.restore_index_s"] = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return err
	}
	runtime.GC() // publish the restore's GC work in runtime/metrics
	gc1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	r.layer["store.restore_allocs"] = float64(m1.Mallocs - m0.Mallocs)
	r.layer["store.restore_gc_cpu_share"] = (gc1[0] - gc0[0]) / max(gc1[1]-gc0[1], 1e-9)

	sp = tr.start("store.ReplayWAL", 0, 0)
	t0 = time.Now()
	entries, _ := store.ReplayWAL(wal)
	for _, e := range entries {
		switch e.Op {
		case store.OpInsert:
			rx.InsertBatch(e.Raws)
		case store.OpRemove:
			ids := make([]int, len(e.IDs))
			for k, id := range e.IDs {
				ids[k] = int(id)
			}
			rx.RemoveBatch(ids)
		}
	}
	r.layer["store.wal_replay_s"] = time.Since(t0).Seconds()
	sp.end()
	if got := rx.Stats(); got.Live != stats.Live || got.Records != stats.Records {
		r.check(1, 1)
		fmt.Fprintf(os.Stderr, "perfbench: in-process restart holds %d/%d records, want %d/%d\n", got.Live, got.Records, stats.Live, stats.Records)
	} else {
		r.check(1, 0)
	}
	return nil
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}
