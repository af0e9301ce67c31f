package join

import (
	"context"
	"iter"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/strutil"
)

// ShardedIndex partitions a dynamic join index across N DynamicIndex shards
// so that mutations parallelize and rebuild pauses are bounded by shard
// size, not corpus size. Records are routed by hashing their stable ID;
// every shard has its own writer mutex, snapshot View, tombstone bitmap and
// compaction thresholds, so inserts and removes on different shards proceed
// in parallel and a threshold-crossing compaction rebuilds one shard while
// the other N−1 keep serving unchanged. N = 1 is the same router with one
// shard; there is no separate single-shard engine.
//
// The router is the only owner of the global pebble frequency order
// (pebble.Order), at every shard count. Sharing one order is what keeps
// signatures comparable across shards: signature selection and the
// ≥τ-overlap count filter depend only on the order, so a record's signature
// is the same whichever shard holds it, and the union of per-shard probe
// results is exactly the unsharded result. InternDynamic calls from
// concurrently mutating shards serialize on the order's own small mutex,
// decoupled from the shard writer locks. Shard compactions never touch the
// order; they merge segments and drop tombstones under it.
//
// New keys land in the order's append-only dynamic region, which degrades
// filter selectivity as it grows. The router bounds it with one trigger:
// once the region reaches RebuildFraction of the frozen prefix, a
// generation swap takes every shard's writer lock, freezes a fresh order
// over all live records and rebuilds every shard under it — the one
// deliberate stop-the-world pause for writers. AdoptOrder runs the same
// swap with an order built elsewhere (a cluster epoch bump). Generations
// make the swap safe for concurrent readers: every shard view is stamped
// with the order generation of its base and Snapshot only returns
// single-generation view sets, so a fan-out query never mixes signatures
// of one order with posting lists of another; while the swap is in flight,
// readers are served the cached pre-swap snapshot instead of blocking.
//
// One core.PreparedCache is shared across all shards: delete/re-insert
// churn routes a re-ingested record by its new ID, which may hash to a
// different shard, and a per-shard cache would miss there.
type ShardedIndex struct {
	joiner *Joiner
	opts   Options
	tau    int
	shards []*DynamicIndex
	cache  *core.PreparedCache

	// planner is the adaptive per-query cost model, shared by every shard
	// (the corpus statistics and the feedback are global; a fan-out request
	// plans once and executes the same decision on every shard). Nil when
	// Options.Plan is PlanFixed.
	planner *planner.Planner

	// gen is the current order generation; its id counts the swaps so far.
	// Replaced wholesale by a generation swap; swapMu serializes swaps with
	// each other and with every other all-shard cut. lastView is the
	// pre-swap snapshot, cached under all writer locks at the start of a
	// swap — readers are served from it while the swap runs instead of
	// blocking.
	gen             atomic.Pointer[orderGen]
	swapMu          sync.Mutex
	swapPauses      []time.Duration // guarded by swapMu; whole-swap writer stalls
	rebuildFraction float64
	noRefreeze      atomic.Bool // set at build, or at runtime by AdoptOrder/DisableRefreeze
	lastView        atomic.Pointer[ShardedView]

	mu     sync.Mutex // guards nextID only; never held during shard work
	nextID int

	// probePool holds *probeScratch for the batch-probe fan-out stage,
	// shared across snapshots and generations (the arena re-sizes per use).
	probePool sync.Pool
}

// orderGen is one immutable generation of the shared global order: the
// order itself, the selector over it, and a monotonically increasing id
// matched against the per-shard view stamps.
type orderGen struct {
	order *pebble.Order
	sel   *pebble.Selector
	id    int
}

// newShardedIndex sets up the router state every constructor shares; the
// caller installs the shards and the first generation.
func (j *Joiner) newShardedIndex(opts Options, dopts DynamicOptions) *ShardedIndex {
	sx := &ShardedIndex{joiner: j, opts: opts, tau: opts.tau(), rebuildFraction: dopts.fraction()}
	if opts.Plan != PlanFixed {
		sx.planner = planner.New(opts.Method, sx.tau)
	}
	if dopts.CacheSize >= 0 {
		sx.cache = core.NewPreparedCache(dopts.CacheSize)
	}
	sx.noRefreeze.Store(sx.rebuildFraction < 0)
	return sx
}

// BuildShardedIndex builds a partitioned dynamic index over the records.
// shards ≤ 0 selects GOMAXPROCS. The join Options (θ, τ, filter method) are
// fixed for the life of the index, exactly as for BuildIndex; DynamicOptions
// apply to every shard (compaction thresholds are evaluated against
// per-shard sizes, so rebuild work is bounded by the shard, and the
// CacheSize bounds the one cache shared by all shards).
func (j *Joiner) BuildShardedIndex(records []strutil.Record, shards int, opts Options, dopts DynamicOptions) *ShardedIndex {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sx := j.newShardedIndex(opts, dopts)
	parts := make([][]strutil.Record, shards)
	for _, rec := range records {
		w := shardOf(rec.ID, shards)
		parts[w] = append(parts[w], rec)
		if rec.ID >= sx.nextID {
			sx.nextID = rec.ID + 1
		}
	}
	// The shared order spans the whole corpus so document frequencies —
	// and therefore signatures — are identical to the unsharded build.
	order := j.BuildOrder(records)
	sx.gen.Store(&orderGen{order: order, sel: pebble.NewSelector(j.gen, order, opts.Theta)})
	sx.shards = make([]*DynamicIndex, shards)
	parallelFor(shards, shards, func(w int) {
		sx.shards[w] = j.newShard(j.buildIndex(parts[w], order, opts, nil), dopts, sx.cache)
		sx.shards[w].publishLocked()
	})
	return sx
}

// shardOf routes a stable record ID to its shard. IDs are allocated
// sequentially by the router, so a multiplicative hash (Fibonacci hashing)
// spreads both sequential ingest and arbitrary survivor sets evenly without
// letting any stride pattern alias a shard.
func shardOf(id, shards int) int {
	if shards == 1 {
		return 0
	}
	return int((uint64(id) * 0x9E3779B97F4A7C15 >> 33) % uint64(shards))
}

// Shards returns the number of partitions.
func (sx *ShardedIndex) Shards() int { return len(sx.shards) }

// InsertBatch appends records to the catalog and returns their stable IDs
// (assigned centrally, so they are unique across shards).
func (sx *ShardedIndex) InsertBatch(raw []string) []int {
	if len(raw) == 0 {
		return nil
	}
	sx.mu.Lock()
	startID := sx.nextID
	sx.nextID += len(raw)
	sx.mu.Unlock()

	ids := make([]int, len(raw))
	recs := make([]strutil.Record, len(raw))
	for i, s := range raw {
		ids[i] = startID + i
		recs[i] = strutil.NewRecord(ids[i], s)
	}
	sx.insertRouted(recs)
	return ids
}

// insertRouted groups records by destination shard and inserts the groups
// concurrently, each taking its shard's writer lock exactly once; shards
// untouched by the batch never block, and neither do readers anywhere.
// Inserts are the only source of new keys, so the re-freeze trigger is
// checked here.
func (sx *ShardedIndex) insertRouted(recs []strutil.Record) {
	groups := make([][]strutil.Record, len(sx.shards))
	for _, rec := range recs {
		w := shardOf(rec.ID, len(sx.shards))
		groups[w] = append(groups[w], rec)
	}
	sx.runShards(nonEmptyShards(len(groups), func(w int) bool { return len(groups[w]) > 0 }), func(w int) {
		sx.shards[w].insertRecords(groups[w])
	})
	sx.maybeRefreeze()
}

// needsRefreeze reports whether the generation's dynamic region has reached
// RebuildFraction of its frozen prefix.
func (sx *ShardedIndex) needsRefreeze(g *orderGen) bool {
	frozen := g.order.FrozenKeys()
	if frozen < 1 {
		frozen = 1
	}
	dyn := g.order.DynamicCount()
	return dyn > 0 && float64(dyn) >= sx.rebuildFraction*float64(frozen)
}

// maybeRefreeze swaps in a fresh order frozen over the live records once
// the dynamic region has grown past the trigger.
func (sx *ShardedIndex) maybeRefreeze() {
	if sx.noRefreeze.Load() || !sx.needsRefreeze(sx.gen.Load()) {
		return
	}
	unlock := sx.lockAll()
	defer unlock()
	// Re-check under the locks: a concurrent insert may have completed the
	// swap, or AdoptOrder may have taken the order over, while this one
	// waited.
	if sx.noRefreeze.Load() || !sx.needsRefreeze(sx.gen.Load()) {
		return
	}
	sx.swapLocked(func(live []strutil.Record) *pebble.Order {
		return sx.joiner.BuildOrder(live)
	})
}

// lockAll takes the swap mutex and every shard's writer lock — one atomic
// cut across shards — and returns the matching unlock.
func (sx *ShardedIndex) lockAll() (unlock func()) {
	sx.swapMu.Lock()
	for _, sh := range sx.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range sx.shards {
			sh.mu.Unlock()
		}
		sx.swapMu.Unlock()
	}
}

// liveLocked collects every shard's live records and prepared verification
// records (per shard, in position order) plus their concatenation. The
// caller holds lockAll.
func (sx *ShardedIndex) liveLocked() (live [][]strutil.Record, prep [][]*core.PreparedRecord, flat []strutil.Record) {
	live = make([][]strutil.Record, len(sx.shards))
	prep = make([][]*core.PreparedRecord, len(sx.shards))
	for w, sh := range sx.shards {
		live[w], prep[w] = sh.liveLocked()
		flat = append(flat, live[w]...)
	}
	return live, prep, flat
}

// swapLocked is the order generation swap, the one way the pebble order
// ever changes: with every writer stalled (the caller holds lockAll) it
// caches the pre-swap view for readers, collects the live records, takes
// the next order from next, rebuilds every shard under it with the bumped
// generation, publishes, and re-anchors the planner once. Readers never
// stall: Snapshot serves the cached view until the new generation is fully
// published.
func (sx *ShardedIndex) swapLocked(next func(live []strutil.Record) *pebble.Order) {
	start := time.Now()
	g := sx.gen.Load()
	// With all writer locks held the current per-shard views are the exact
	// pre-swap state and necessarily one generation.
	pre := make([]*View, len(sx.shards))
	for w, sh := range sx.shards {
		pre[w] = sh.Snapshot()
	}
	sx.lastView.Store(newShardedView(sx, g, pre))
	live, prep, flat := sx.liveLocked()
	order := next(flat)
	ng := &orderGen{order: order, sel: pebble.NewSelector(sx.joiner.gen, order, sx.opts.Theta), id: g.id + 1}
	parallelFor(len(sx.shards), len(sx.shards), func(w int) {
		sx.shards[w].refreezeLocked(order, ng.id, live[w], prep[w])
	})
	sx.gen.Store(ng)
	// One re-anchor per swap: the planner is shared, so per-shard calls
	// would decay its corrections N times for one corpus event.
	sx.planner.Reanchor()
	// Dropping the cached view releases the superseded generation's bases
	// for collection (readers that already hold it keep it alive only as
	// long as they keep it).
	sx.lastView.Store(nil)
	// The whole stop-the-world window is one writer stall; log it whole so
	// the pause percentiles cannot understate the one corpus-sized pause
	// the design admits.
	sx.swapPauses = appendPause(sx.swapPauses, time.Since(start))
}

// Refreezes returns the number of order generation swaps so far.
func (sx *ShardedIndex) Refreezes() int { return sx.gen.Load().id }

// Remove tombstones the record with the given stable ID on its shard,
// reporting whether it was present and live.
func (sx *ShardedIndex) Remove(id int) bool {
	return sx.shards[shardOf(id, len(sx.shards))].RemoveBatch([]int{id})[0]
}

// RemoveBatch tombstones every given stable ID, reporting per ID whether it
// was present and live. IDs are grouped by shard and the groups removed
// concurrently, each taking its shard's writer lock exactly once.
func (sx *ShardedIndex) RemoveBatch(ids []int) []bool {
	if len(ids) == 0 {
		return nil
	}
	type ref struct{ id, at int }
	groups := make([][]ref, len(sx.shards))
	for i, id := range ids {
		w := shardOf(id, len(sx.shards))
		groups[w] = append(groups[w], ref{id, i})
	}
	out := make([]bool, len(ids))
	sx.runShards(nonEmptyShards(len(groups), func(w int) bool { return len(groups[w]) > 0 }), func(w int) {
		batch := make([]int, len(groups[w]))
		for i, r := range groups[w] {
			batch[i] = r.id
		}
		for i, ok := range sx.shards[w].RemoveBatch(batch) {
			out[groups[w][i].at] = ok
		}
	})
	return out
}

// nonEmptyShards collects the shard indexes a batch actually touches, so a
// small mutation never pays goroutine spawns for uninvolved shards.
func nonEmptyShards(n int, used func(w int) bool) []int {
	var ws []int
	for w := 0; w < n; w++ {
		if used(w) {
			ws = append(ws, w)
		}
	}
	return ws
}

// runShards runs fn(w) for the given shard indexes, concurrently when there
// are several, inline when there is one.
func (sx *ShardedIndex) runShards(ws []int, fn func(w int)) {
	parallelFor(len(ws), len(ws), func(i int) { fn(ws[i]) })
}

// Snapshot captures every shard's current View into one ShardedView. Each
// per-shard View is individually consistent and immutable; the combination
// is not a single atomic cut across shards (a concurrent InsertBatch
// spanning several shards may be partially visible), which is the standard
// relaxation partitioned serving systems make in exchange for lock-free
// writes on disjoint shards. What IS guaranteed is order-generation
// consistency: all N views belong to one generation of the shared order,
// so a fan-out query never mixes signatures of one order with posting
// lists of another. While a generation swap is publishing the next
// generation, Snapshot serves the cached pre-swap view — exact as of the
// moment every writer stalled — so readers never block on the
// stop-the-world rebuild.
func (sx *ShardedIndex) Snapshot() *ShardedView {
	for {
		g := sx.gen.Load()
		views := make([]*View, len(sx.shards))
		consistent := true
		for w, sh := range sx.shards {
			views[w] = sh.Snapshot()
			if views[w].gen != g.id {
				consistent = false
				break
			}
		}
		if consistent {
			return newShardedView(sx, g, views)
		}
		if sx.gen.Load() != g {
			// The swap completed between loading g and reading the shard
			// views; retry against the new generation.
			continue
		}
		// A swap is mid-flight: serve the pre-swap snapshot it cached under
		// all writer locks. (The cache is published before the first shard
		// changes generation, so this is a safety net.)
		if sv := sx.lastView.Load(); sv != nil {
			return sv
		}
		sx.swapMu.Lock()
		sx.swapMu.Unlock() //nolint:staticcheck // empty critical section: barrier only
	}
}

// Stats aggregates the current per-shard snapshot statistics (see
// ShardedView.Stats).
func (sx *ShardedIndex) Stats() DynamicStats { return sx.Snapshot().Stats() }

// RebuildPauses returns every writer stall so far: the per-shard compaction
// durations (shard-local stalls; with N shards the expected maximum is the
// full-corpus rebuild pause divided by N) plus one entry per generation
// swap covering its whole stop-the-world window, so the rare corpus-sized
// pause shows up in the percentiles rather than hiding behind its
// per-shard components. Each history is capped at maxPauseLog entries.
func (sx *ShardedIndex) RebuildPauses() []time.Duration {
	var out []time.Duration
	for _, sh := range sx.shards {
		sh.mu.Lock()
		out = append(out, sh.pauses...)
		sh.mu.Unlock()
	}
	sx.swapMu.Lock()
	out = append(out, sx.swapPauses...)
	sx.swapMu.Unlock()
	return out
}

// ShardedView is one fan-out snapshot: per-shard immutable Views of a
// single order generation, and the lazily built flattened catalog the
// batch-probe pipeline runs over. It is the one read path of a dynamic
// index, at every shard count. All methods are read-only and safe for
// unbounded concurrency.
type ShardedView struct {
	sx    *ShardedIndex
	gen   *orderGen // the views' shared-order generation
	views []*View

	once sync.Once
	flat struct {
		records  []strutil.Record
		prepared []*core.PreparedRecord
		offsets  []int // shard -> base position in the flattened catalog
		avgSig   float64
	}
}

// newShardedView assembles a generation-consistent snapshot. Construction
// is deliberately trivial — Snapshot sits on the per-query serving path, so
// the stats aggregation (which touches the shared cache mutex) waits for a
// Stats call.
func newShardedView(sx *ShardedIndex, g *orderGen, views []*View) *ShardedView {
	return &ShardedView{sx: sx, gen: g, views: views}
}

// Stats aggregates the snapshot's per-shard statistics. Catalog, segment,
// insert and posting-layout counts are those fixed when the snapshot was
// taken, summed over the shards; Rebuilds adds the generation swaps to the
// shard compactions; BuildTime is the slowest shard's build (shards build
// in parallel). The interned-key split, the probe and verify tallies and
// the planner and cache counters are live index-lifetime counters, read
// fresh on every call so successive calls observe queries served after the
// snapshot was taken.
func (sv *ShardedView) Stats() DynamicStats {
	st := DynamicStats{
		Shards:      len(sv.views),
		Rebuilds:    sv.gen.id,
		Theta:       sv.sx.opts.Theta,
		Tau:         sv.sx.tau,
		FrozenKeys:  sv.gen.order.FrozenKeys(),
		DynamicKeys: sv.gen.order.DynamicCount(),
	}
	for _, v := range sv.views {
		vs := &v.stats
		st.Records += vs.Records
		st.Live += vs.Live
		st.Dead += vs.Dead
		st.Segments += vs.Segments
		st.Rebuilds += vs.Rebuilds
		st.Inserts += vs.Inserts
		st.DenseKeys += vs.DenseKeys
		st.SparseKeys += vs.SparseKeys
		st.BuildTime = max(st.BuildTime, vs.BuildTime)
		st.ProbePostings += v.dx.probePostings.Load()
		st.ProbeBitsetTokens += v.dx.probeBitsetTokens.Load()
		st.ProbeSliceTokens += v.dx.probeSliceTokens.Load()
		st.VerifiedCandidates += v.dx.verifyVerified.Load()
		st.PrunedByBound += v.dx.verifyPruned.Load()
		st.MemoHits += v.dx.verifyMemoHits.Load()
	}
	if sv.sx.cache != nil {
		st.CacheHits, st.CacheMisses = sv.sx.cache.Stats()
	}
	if pl := sv.sx.planner; pl != nil {
		c := pl.Counters()
		st.SuggestedTau = c.SuggestedTau
		st.Plans = c.Plans
		st.PlanFallbacks = c.Fallbacks
		st.PlanReanchors = c.Reanchors
		st.PlanDecisions = c.Decisions
	}
	return st
}

// Record returns the record with the given stable ID, if it is live in this
// snapshot; the ID's hash identifies the one shard that can hold it.
func (sv *ShardedView) Record(id int) (strutil.Record, bool) {
	return sv.views[shardOf(id, len(sv.views))].Record(id)
}

// Live returns the snapshot's live records across all shards, in ascending
// stable-ID order.
func (sv *ShardedView) Live() []strutil.Record {
	var out []strutil.Record
	for _, v := range sv.views {
		out = append(out, v.Live()...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// fanout runs fn for every shard view concurrently under a shared
// cancellable context: the first shard to return an error cancels its
// siblings (errgroup-style propagation, without the dependency). When the
// caller's own context was cancelled, that cancellation is returned bare —
// the shards did not fail, the request was withdrawn. Any other failure is
// reported as one *FanoutError naming every failing shard (siblings that
// merely observed the resulting internal cancellation are collateral, not
// failures, and are omitted).
func (sv *ShardedView) fanout(ctx context.Context, fn func(ctx context.Context, w int) error) error {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(sv.views))
	parallelFor(len(sv.views), len(sv.views), func(w int) {
		if errs[w] = fn(ictx, w); errs[w] != nil {
			cancel()
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	return newFanoutError("shard", errs)
}

// ProbeRecord runs the filter-and-verify pipeline for one tokenised query
// against every shard concurrently and merges the matches in ascending
// stable-ID order. The signature is selected once (all shards share the
// global order, so one signature is valid everywhere) and the query is
// prepared at most once, on the first shard that produces a candidate.
func (sv *ShardedView) ProbeRecord(tokens []string) []QueryMatch {
	out, _ := sv.ProbeRecordCtx(context.Background(), tokens, QueryOpts{})
	return out
}

// ProbeRecordCtx is ProbeRecord with cooperative cancellation and
// per-request options: the first shard to observe the cancelled context
// aborts the whole fan-out. An empty token slice returns an empty result
// without touching any shard.
func (sv *ShardedView) ProbeRecordCtx(ctx context.Context, tokens []string, qo QueryOpts) ([]QueryMatch, error) {
	if len(tokens) == 0 {
		return nil, ctx.Err()
	}
	start := time.Now()
	d := sv.planRecord(tokens, qo)
	lp := &lazyPrepared{calc: sv.sx.joiner.calcFor(sv.sx.opts), tokens: tokens}
	parts := make([][]QueryMatch, len(sv.views))
	var ex planner.Exec
	err := sv.fanout(ctx, func(ictx context.Context, w int) error {
		var werr error
		parts[w], werr = sv.views[w].probeRecordPrepared(ictx, d.Sig, d.Tau, lp, qo, &ex)
		return werr
	})
	if err != nil {
		return nil, err
	}
	sv.sx.planner.ObserveExec(d, &ex, 1, time.Since(start).Nanoseconds())
	var out []QueryMatch
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Record < out[b].Record })
	return out, nil
}

// planRecord resolves one probe-side configuration and signature for a
// fan-out request: one plan per request, shared by every shard (the shards
// share the order, so one signature is valid everywhere, and the planner
// sees the global document frequencies via listLen).
func (sv *ShardedView) planRecord(tokens []string, qo QueryOpts) planner.Decision {
	if qo.ProbeTau > 0 {
		method, tau := pinnedConfig(qo, sv.sx.tau)
		d := planner.FixedConfig(method, tau)
		d.Sig = sv.gen.sel.Signature(tokens, method, tau)
		return d
	}
	pl := sv.sx.planner
	if pl == nil || qo.Plan == PlanFixed {
		d := planner.FixedConfig(sv.sx.opts.Method, sv.sx.tau)
		d.Sig = sv.gen.sel.Signature(tokens, sv.sx.opts.Method, sv.sx.tau)
		return d
	}
	return pl.Plan(sv.gen.sel, sv.gen.sel.Prepare(tokens), sv.listLen, sv.totalRecords())
}

// planBatchSample bounds the prepared-probe sample a batch plan evaluates:
// the plan must stay far cheaper than the batch it steers.
const planBatchSample = 8

// planBatch resolves one configuration for a whole probe batch from a
// strided sample of the probe records, prepared under the generation's
// selector (batch paths select their signatures after the decision, in the
// shared signature pass).
func (sv *ShardedView) planBatch(records []strutil.Record) planner.Decision {
	pl := sv.sx.planner
	if pl == nil || len(records) == 0 {
		return planner.FixedConfig(sv.sx.opts.Method, sv.sx.tau)
	}
	stride := (len(records) + planBatchSample - 1) / planBatchSample
	pres := make([]pebble.Presig, 0, planBatchSample)
	for i := 0; i < len(records); i += stride {
		pres = append(pres, sv.gen.sel.Prepare(records[i].Tokens))
	}
	return pl.PlanBatch(sv.gen.sel, pres, sv.listLen, sv.totalRecords())
}

// listLen sums one interned key's live posting lengths across every shard's
// base index — the global document frequency, identical to what the
// unsharded index would report (routing partitions records, not postings).
func (sv *ShardedView) listLen(id uint32) int {
	n := 0
	for _, v := range sv.views {
		n += v.base.inv.ListLength(id)
	}
	return n
}

// totalRecords is the snapshot's catalog length summed over the shards.
func (sv *ShardedView) totalRecords() int {
	n := 0
	for _, v := range sv.views {
		n += len(v.records)
	}
	return n
}

// QueryTopK fans the thresholded top-k scan out to every shard concurrently
// and k-bounds the merge: each shard returns its own top k through the
// bounded heap, and the per-shard streams are folded through one more
// k-bounded heap — sound because the global top k under the total order
// (similarity desc, ID asc) is contained in the union of per-shard top k's.
// Results are ordered by descending similarity (ascending ID on ties); k ≤ 0
// yields an empty result without touching any shard.
func (sv *ShardedView) QueryTopK(tokens []string, k int) []QueryMatch {
	out, _ := sv.QueryTopKCtx(context.Background(), tokens, k, QueryOpts{})
	return out
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and per-request
// options: the first shard to observe the cancelled context aborts the whole
// fan-out. An empty token slice or k ≤ 0 returns an empty result without
// touching any shard.
func (sv *ShardedView) QueryTopKCtx(ctx context.Context, tokens []string, k int, qo QueryOpts) ([]QueryMatch, error) {
	if k <= 0 || len(tokens) == 0 {
		return nil, ctx.Err()
	}
	start := time.Now()
	d := sv.planRecord(tokens, qo)
	lp := &lazyPrepared{calc: sv.sx.joiner.calcFor(sv.sx.opts), tokens: tokens}
	heaps := make([]topKHeap, len(sv.views))
	var ex planner.Exec
	// One floor tracker spans the whole fan-out: as soon as any shard's
	// heap fills, its k-th similarity becomes a lower bound on the global
	// k-th best, so sibling shards can skip candidates bounded below it.
	var ft floorTracker
	err := sv.fanout(ctx, func(ictx context.Context, w int) error {
		var werr error
		heaps[w], werr = sv.views[w].queryTopKPrepared(ictx, d.Sig, d.Tau, lp, k, qo, &ex, &ft)
		return werr
	})
	if err != nil {
		return nil, err
	}
	sv.sx.planner.ObserveExec(d, &ex, 1, time.Since(start).Nanoseconds())
	merged := heaps[0]
	for _, h := range heaps[1:] {
		for _, m := range h.entries {
			merged.offer(m, k)
		}
	}
	return merged.sorted(), nil
}

// Probe joins a probe collection against the snapshot through the shared
// probe pipeline: probe signatures and prepared records are computed once,
// and the candidate stage fans each probe record out across the per-shard
// count filters, remapping shard-local candidate positions into the
// flattened catalog. Pair.S carries stable record IDs; results are sorted by
// (S, T) and identical to the unsharded Probe. Stats.ShardCandidates breaks
// the candidate count down per shard (its entries sum to Stats.Candidates);
// the stage durations are wall-clock across the whole fan-out, not per-shard
// CPU sums.
func (sv *ShardedView) Probe(records []strutil.Record) ([]Pair, Stats) {
	start := time.Now()
	d := sv.planBatch(records)
	tgt, shardCands := sv.probeTarget(d.Tau)
	sigs := sv.sx.joiner.signatures(records, sv.gen.sel, d.Method, d.Tau)
	prep := prepareRecords(records, sv.sx.joiner.calcFor(sv.sx.opts))
	pairs, stats := runProbeStages(sv.sx.joiner.calcFor(sv.sx.opts), sv.sx.opts, tgt, records, sigs, prep, false, time.Since(start))
	stats.ShardCandidates = shardCands()
	stats.PlanTau = planTauOf(d)
	// Verification runs centrally over the flattened catalog, not per
	// shard; attribute its counters to shard 0 so the sharded Stats sum
	// still accounts for every verified candidate exactly once.
	sv.views[0].dx.noteVerify(verifyTally{verified: stats.VerifiedCandidates, pruned: stats.PrunedByBound, memoHits: stats.MemoHits})
	sv.sx.planner.Observe(d, int64(stats.Candidates), stats.VerifiedCandidates, int64(len(records)), stats.VerifyTime.Nanoseconds(), 0)
	return pairs, stats
}

// ProbeSeq is the streaming form of Probe: matches are yielded in
// verification-completion order as the fan-out verify stage confirms them,
// a consumer break stops the pipeline, and a ctx cancellation aborts the
// candidate fan-out and every verification worker before surfacing as one
// final error.
func (sv *ShardedView) ProbeSeq(ctx context.Context, records []strutil.Record) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		start := time.Now()
		d := sv.planBatch(records)
		tgt, _ := sv.probeTarget(d.Tau)
		calc := sv.sx.joiner.calcFor(sv.sx.opts)
		sigs := sv.sx.joiner.signatures(records, sv.gen.sel, d.Method, d.Tau)
		prep := prepareRecords(records, calc)
		stats, err := runProbeStream(ctx, calc, sv.sx.opts, tgt, records, sigs, prep, false, time.Since(start), emit)
		sv.views[0].dx.noteVerify(verifyTally{verified: stats.VerifiedCandidates, pruned: stats.PrunedByBound, memoHits: stats.MemoHits})
		if err == nil {
			sv.sx.planner.Observe(d, int64(stats.Candidates), stats.VerifiedCandidates, int64(len(records)), stats.VerifyTime.Nanoseconds(), 0)
		}
		return err
	})
}

// probeTarget flattens the snapshot into the probe target the shared stages
// run over, wiring the fan-out candidate stage in at the batch's planned
// overlap constraint. The returned accessor reads the per-shard candidate
// counts the stage accumulated.
func (sv *ShardedView) probeTarget(tau int) (probeTarget, func() []int) {
	sv.initFlat()
	stage, shardCands := sv.candidateStage(tau)
	return probeTarget{
		records:    sv.flat.records,
		prepared:   sv.flat.prepared,
		avgSig:     sv.flat.avgSig,
		candidates: stage,
	}, shardCands
}

// initFlat lays the per-shard catalogs out in one position space for the
// batch-probe pipeline: a lone shard's slices are aliased, several shards'
// are concatenated. Views are immutable, so this is done once per
// ShardedView and shared by every Probe on it.
func (sv *ShardedView) initFlat() {
	sv.once.Do(func() {
		v0 := sv.views[0]
		sv.flat.records, sv.flat.prepared, sv.flat.avgSig = v0.records, v0.prepared, v0.avgSig
		sv.flat.offsets = make([]int, len(sv.views))
		if len(sv.views) < 2 {
			return
		}
		total, live := 0, 0
		var sigMass float64
		for _, v := range sv.views {
			total += len(v.records)
			live += v.stats.Live
			sigMass += v.avgSig * float64(v.stats.Live)
		}
		sv.flat.records = make([]strutil.Record, 0, total)
		sv.flat.prepared = make([]*core.PreparedRecord, 0, total)
		for w, v := range sv.views {
			sv.flat.offsets[w] = len(sv.flat.records)
			sv.flat.records = append(sv.flat.records, v.records...)
			sv.flat.prepared = append(sv.flat.prepared, v.prepared...)
		}
		sv.flat.avgSig = 0
		if live > 0 {
			sv.flat.avgSig = sigMass / float64(live)
		}
	})
}

// candidateStage builds the fan-out count filter for a whole probe
// collection: per probe record, every shard's filter runs over the shared
// scratch (counts are zeroed between shards), and shard-local survivor
// positions are remapped by the shard's offset into the flattened catalog.
// The second return value reads the per-shard candidate counts accumulated
// across all probe records (each stage invocation gets fresh counters).
func (sv *ShardedView) candidateStage(tau int) (func(ctx context.Context, sigs []pebble.Signature, workers int) ([]pairKey, filterTally, error), func() []int) {
	counters := make([]atomic.Int64, len(sv.views))
	stage := func(ctx context.Context, sigs []pebble.Signature, workers int) ([]pairKey, filterTally, error) {
		return parallelCandidates(ctx, len(sigs), len(sv.flat.records), workers, &sv.sx.probePool, func(sc *probeScratch, t int) ([]int32, filterTally) {
			sc.merged = sc.merged[:0]
			var sum filterTally
			for w, v := range sv.views {
				// Each shard's filter reuses the worker scratch: the arena
				// is re-sized to the shard's catalog per call (monotone
				// within one fan-out only by accident, so Reset handles
				// shrink and grow), and survivors are staged into merged
				// before the next shard overwrites the touched list.
				sc.acc.Reset(len(v.records))
				recs, ft := v.candidatesRecord(sigs[t], tau, sc)
				sum.add(ft)
				counters[w].Add(int64(len(recs)))
				off := int32(sv.flat.offsets[w])
				for _, r := range recs {
					sc.merged = append(sc.merged, off+r)
				}
			}
			return sc.merged, sum
		})
	}
	shardCands := func() []int {
		out := make([]int, len(counters))
		for i := range counters {
			out[i] = int(counters[i].Load())
		}
		return out
	}
	return stage, shardCands
}

// calcFor resolves the calculator an Options selects: the override when
// set, the joiner default otherwise.
func (j *Joiner) calcFor(opts Options) *core.Calculator {
	if opts.Calculator != nil {
		return opts.Calculator
	}
	return j.calc
}
