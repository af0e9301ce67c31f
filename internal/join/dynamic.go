package join

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/strutil"
)

// PlanMode selects between adaptive per-query planning (Auto, the zero
// value) and the fixed build-time configuration (Fixed). It appears both on
// Options (index-wide default; Fixed disables the planner entirely) and on
// QueryOpts (per-request override).
type PlanMode = planner.Mode

const (
	// PlanAuto plans each request adaptively (the default).
	PlanAuto = planner.Auto
	// PlanFixed pins the build-time filter method and τ.
	PlanFixed = planner.Fixed
)

// DynamicIndex is one shard of a ShardedIndex: a frozen base index plus a
// chain of small immutable delta segments for records inserted since the
// last rebuild, and a tombstone bitmap for removed records. The pebble order
// belongs to the router; a shard interns new keys into its append-only
// dynamic region and never builds or freezes an order of its own.
//
// Writers serialize on the shard's mutex, mutate writer-owned state, and
// publish a fresh immutable View via an atomic pointer swap — copy-on-write
// at the granularity of slice headers and the tombstone bitmap. Readers run
// entirely against a View: no locks, no retries, and a consistent picture of
// the shard no matter how many mutations land mid-query.
//
// Correctness under mutation rests on two invariants:
//
//  1. The pebble order is append-only (pebble.Order.InternDynamic), so the
//     relative position of any two interned keys never changes and every
//     signature ever selected remains a valid prefix under every later
//     order state. Signatures of base records and of each segment therefore
//     stay comparable with signatures of new probes.
//  2. Published Views are never mutated: records/prepared/segment slices
//     only ever grow past the published length, and the tombstone bitmap is
//     cloned before a bit is set. A View observes removals only if they
//     were published before the View was taken.
//
// Once tombstones reach RebuildFraction of the shard's catalog, or the
// segment chain grows past MaxSegments, the writer compacts: live records
// are merged into a fresh base under the router's current order (reusing
// their prepared verification records) and the segment chain resets to
// empty. A fresher frequency ranking comes only from the router's order
// generation swap, which rebuilds every shard under a new order.
type DynamicIndex struct {
	joiner *Joiner
	opts   Options
	tau    int
	calc   *core.Calculator
	cache  *core.PreparedCache

	rebuildFraction float64
	maxSegments     int

	mu  sync.Mutex // serializes writers; never held by readers
	cur atomic.Pointer[View]

	// Writer-owned state. records, prepared and segs are append-only while
	// a base is live (published Views hold shorter headers); dead is cloned
	// before every bit set. All of it is replaced wholesale on rebuild.
	base      *Index
	segs      []*segment
	records   []strutil.Record
	prepared  []*core.PreparedRecord
	dead      []uint64
	deadCount int
	positions map[int]int // stable record ID -> position
	rebuilds  int
	inserts   int
	// sigLens holds each position's signature length and sigLenLive the
	// total over live positions, so snapshots report the true mean
	// indexed-side signature length even between rebuilds.
	sigLens    []int
	sigLenLive int
	// pauses records the wall-clock duration of every compaction, i.e. how
	// long this shard's writers stalled; readers never pause. The serve
	// benchmark reports their percentiles.
	pauses []time.Duration
	// gen is the router's order generation this shard's base was built
	// under. A generation swap bumps it on every shard while holding every
	// writer lock, and snapshots use it to detect mixed-generation view sets.
	gen int

	// Cumulative filter-phase work over every probe served against this
	// shard's views (single-record, top-k and batch alike), surfaced
	// through DynamicStats so a serving process can watch the
	// bitmap-versus-slice mix live. Atomics: probes run concurrently with
	// each other and with writers.
	probePostings     atomic.Int64
	probeBitsetTokens atomic.Int64
	probeSliceTokens  atomic.Int64

	// Cumulative verify-phase work, the same way: candidates whose msim
	// matrix was computed, candidates rejected by the sound upper bounds
	// (size-ratio bound or the rising top-k floor), and msim memo hits.
	verifyVerified atomic.Int64
	verifyPruned   atomic.Int64
	verifyMemoHits atomic.Int64

	pool sync.Pool // *probeScratch shared across Views and generations
}

// noteProbe folds one probe's filter tally into the cumulative counters.
func (dx *DynamicIndex) noteProbe(t filterTally) {
	dx.probePostings.Add(t.postings)
	dx.probeBitsetTokens.Add(t.bitsetTokens)
	dx.probeSliceTokens.Add(t.sliceTokens)
}

// noteVerify folds one operation's verify tally into the cumulative counters.
func (dx *DynamicIndex) noteVerify(t verifyTally) {
	dx.verifyVerified.Add(t.verified)
	dx.verifyPruned.Add(t.pruned)
	dx.verifyMemoHits.Add(t.memoHits)
}

// segment is one immutable batch of inserted records: a sparse inverted
// index over their signatures, keyed by global record positions.
type segment struct {
	inv *invindex.Delta
}

// DynamicOptions tunes the mutation behaviour of a ShardedIndex on top of
// the join Options fixed at build time.
type DynamicOptions struct {
	// RebuildFraction triggers a global order re-freeze when the dynamically
	// appended pebble keys reach this fraction of the frozen order, and a
	// shard compaction when tombstoned records reach this fraction of the
	// shard's catalog. 0 selects the default 0.25; negative disables both
	// size-triggered rebuilds.
	RebuildFraction float64
	// MaxSegments caps a shard's delta-segment chain length (every insert
	// batch appends one segment per touched shard); crossing it triggers a
	// compaction. 0 selects the default 64.
	MaxSegments int
	// CacheSize bounds the prepared-record cache consulted on insert
	// (core.PreparedCache). 0 selects core.DefaultPreparedCacheSize;
	// negative disables the cache.
	CacheSize int
}

const (
	defaultRebuildFraction = 0.25
	defaultMaxSegments     = 64
)

// fraction resolves RebuildFraction's default.
func (o DynamicOptions) fraction() float64 {
	if o.RebuildFraction == 0 {
		return defaultRebuildFraction
	}
	return o.RebuildFraction
}

// newShard wraps a base index — built or restored under the router's order
// — as one shard. cache is the router's prepared-record cache, shared by
// every shard so delete/re-insert churn hits whichever shard the record
// lands on. The caller publishes the first View.
func (j *Joiner) newShard(base *Index, dopts DynamicOptions, cache *core.PreparedCache) *DynamicIndex {
	dx := &DynamicIndex{
		joiner:          j,
		opts:            base.opts,
		tau:             base.tau,
		calc:            base.calc,
		cache:           cache,
		rebuildFraction: dopts.fraction(),
		maxSegments:     dopts.MaxSegments,
	}
	if dx.maxSegments <= 0 {
		dx.maxSegments = defaultMaxSegments
	}
	dx.adoptBaseLocked(base)
	return dx
}

// adoptBaseLocked installs a freshly built base index as the writer state.
func (dx *DynamicIndex) adoptBaseLocked(base *Index) {
	dx.base = base
	dx.segs = nil
	dx.records = base.records
	dx.prepared = base.prepared
	dx.dead = make([]uint64, (len(base.records)+63)/64)
	dx.deadCount = 0
	dx.positions = make(map[int]int, len(base.records))
	for pos, rec := range base.records {
		dx.positions[rec.ID] = pos
	}
	dx.sigLens = make([]int, base.sigCount())
	dx.sigLenLive = 0
	for i := range dx.sigLens {
		dx.sigLens[i] = base.sigLenAt(i)
		dx.sigLenLive += dx.sigLens[i]
	}
}

// publishLocked snapshots the writer state into a fresh immutable View and
// swaps it in for readers.
func (dx *DynamicIndex) publishLocked() {
	v := &View{
		dx:       dx,
		base:     dx.base,
		segs:     dx.segs,
		records:  dx.records,
		prepared: dx.prepared,
		dead:     dx.dead,
		gen:      dx.gen,
		stats: DynamicStats{
			Records:    len(dx.records),
			Live:       len(dx.records) - dx.deadCount,
			Dead:       dx.deadCount,
			Segments:   len(dx.segs),
			Rebuilds:   dx.rebuilds,
			Inserts:    dx.inserts,
			DenseKeys:  dx.base.inv.DenseKeys(),
			SparseKeys: dx.base.inv.SparseKeys(),
			BuildTime:  dx.base.BuildTime,
		},
	}
	if live := len(dx.records) - dx.deadCount; live > 0 {
		v.avgSig = float64(dx.sigLenLive) / float64(live)
	}
	dx.cur.Store(v)
}

// Snapshot returns the shard's current immutable View.
func (dx *DynamicIndex) Snapshot() *View { return dx.cur.Load() }

// insertRecords appends records whose stable IDs the router assigned. New
// signature keys are interned into the shared order's dynamic region, the
// batch's postings become one immutable delta segment, and a new View is
// published — compacted first when the segment chain outgrew MaxSegments.
func (dx *DynamicIndex) insertRecords(recs []strutil.Record) {
	dx.mu.Lock()
	defer dx.mu.Unlock()
	delta := invindex.NewDelta()
	// Generate each record's pebbles once: the whole batch is interned in a
	// single InternDynamic call (at most one dynamic-table clone), and the
	// same slices then feed signature selection via PreparePebbles.
	pebs := make([][]pebble.Pebble, len(recs))
	segs := make([][]core.Segment, len(recs))
	for i := range recs {
		pebs[i], segs[i] = dx.joiner.gen.Pebbles(recs[i].Tokens)
	}
	dx.base.order.InternDynamic(pebs...)
	var idbuf []uint32
	for i := range recs {
		pos := len(dx.records)
		pre := dx.base.sel.PreparePebbles(pebs[i], segs[i], recs[i].Tokens)
		sig := dx.base.sel.Select(pre, dx.opts.Method, dx.tau)
		idbuf = appendSignatureIDs(idbuf[:0], sig)
		delta.Add(pos, idbuf)
		dx.sigLens = append(dx.sigLens, sig.Len())
		dx.sigLenLive += sig.Len()
		dx.records = append(dx.records, recs[i])
		dx.prepared = append(dx.prepared, dx.calc.PrepareCached(dx.cache, recs[i].Tokens))
		dx.positions[recs[i].ID] = pos
	}
	for len(dx.dead)*64 < len(dx.records) {
		dx.dead = append(dx.dead, 0)
	}
	dx.segs = append(dx.segs, &segment{inv: delta})
	dx.inserts += len(recs)
	dx.maybeRebuildLocked()
	dx.publishLocked()
}

// RemoveBatch tombstones every given stable ID, reporting per ID whether it
// was present and live. The tombstone bitmap is cloned once, before the
// first bit set (clone-before-set: published Views keep observing the old
// bitmap), so bulk deletions cost one publish instead of one per record;
// nothing is published when every ID misses.
func (dx *DynamicIndex) RemoveBatch(ids []int) []bool {
	out := make([]bool, len(ids))
	dx.mu.Lock()
	defer dx.mu.Unlock()
	var nd []uint64
	for i, id := range ids {
		pos, ok := dx.positions[id]
		if !ok {
			continue
		}
		if nd == nil {
			nd = append([]uint64(nil), dx.dead...)
		}
		dx.tombstoneLocked(nd, id, pos)
		out[i] = true
	}
	if nd != nil {
		dx.dead = nd
		dx.maybeRebuildLocked()
		dx.publishLocked()
	}
	return out
}

// tombstoneLocked marks the record at pos dead in the bitmap dead.
func (dx *DynamicIndex) tombstoneLocked(dead []uint64, id, pos int) {
	delete(dx.positions, id)
	dead[pos>>6] |= 1 << (uint(pos) & 63)
	dx.deadCount++
	dx.sigLenLive -= dx.sigLens[pos]
}

// maybeRebuildLocked compacts the shard when the segment chain or the
// tombstone mass crosses its threshold: the live records, with their
// prepared verification records, become a fresh base under the shard's
// current order. Stable IDs are preserved; positions are reassigned.
func (dx *DynamicIndex) maybeRebuildLocked() {
	if len(dx.segs) > dx.maxSegments ||
		(dx.rebuildFraction >= 0 && dx.deadCount > 0 && float64(dx.deadCount) >= dx.rebuildFraction*float64(len(dx.records))) {
		start := time.Now()
		live, prep := dx.liveLocked()
		dx.adoptBaseLocked(dx.joiner.buildIndex(live, dx.base.order, dx.opts, prep))
		dx.rebuilds++
		dx.pauses = appendPause(dx.pauses, time.Since(start))
	}
}

// maxPauseLog bounds each pause history: a long-running daemon rebuilds
// indefinitely, and the log exists for recent-percentile reporting, not as
// an unbounded archive.
const maxPauseLog = 1024

// appendPause appends a pause, dropping the older half of the log once it
// outgrows maxPauseLog (amortized O(1), keeps the recent window).
func appendPause(log []time.Duration, d time.Duration) []time.Duration {
	if len(log) >= maxPauseLog {
		log = append(log[:0], log[len(log)/2:]...)
	}
	return append(log, d)
}

// liveLocked collects the live records and their prepared verification
// records in position order.
func (dx *DynamicIndex) liveLocked() ([]strutil.Record, []*core.PreparedRecord) {
	live := make([]strutil.Record, 0, len(dx.records)-dx.deadCount)
	prep := make([]*core.PreparedRecord, 0, len(dx.records)-dx.deadCount)
	for pos, rec := range dx.records {
		if dx.dead[pos>>6]&(1<<(uint(pos)&63)) != 0 {
			continue
		}
		live = append(live, rec)
		prep = append(prep, dx.prepared[pos])
	}
	return live, prep
}

// refreezeLocked rebuilds this shard's base under the order of a new
// generation, stamping its id. The caller (the router's generation swap)
// holds dx.mu — and every sibling's — for the whole swap, so no view mixing
// old-order bases with the new selector can be published; it also supplies
// the live records it already collected and logs the whole swap as one
// router-level pause (per-shard entries here would both double-count the
// stall and hide its corpus-sized total).
func (dx *DynamicIndex) refreezeLocked(order *pebble.Order, gen int, live []strutil.Record, prep []*core.PreparedRecord) {
	dx.gen = gen
	dx.adoptBaseLocked(dx.joiner.buildIndex(live, order, dx.opts, prep))
	dx.publishLocked()
}

// DynamicStats describes one snapshot of a ShardedIndex.
type DynamicStats struct {
	// Records is the catalog length including tombstones; Live and Dead
	// split it.
	Records, Live, Dead int
	// Segments is the length of the delta-segment chains (one segment per
	// touched shard and insert batch since that shard's last rebuild),
	// summed over the shards.
	Segments int
	// Shards is the number of index partitions.
	Shards int
	// FrozenKeys and DynamicKeys count the interned pebble keys in the
	// frozen order prefix and the append-only dynamic region.
	FrozenKeys, DynamicKeys int
	// Rebuilds counts shard compactions plus order generation swaps (a
	// re-freeze or an adopted order); Inserts the records appended over the
	// index lifetime.
	Rebuilds, Inserts int
	// DenseKeys and SparseKeys split the base index's non-empty posting
	// lists by representation: packed bitmap form (lists past the hybrid
	// density cutoff) versus sorted slice form. Summed over the shards (each
	// shard hybridizes its own base).
	DenseKeys, SparseKeys int
	// ProbePostings counts posting entries processed by the count filter
	// over every probe served since the index was built;
	// ProbeBitsetTokens and ProbeSliceTokens split the probe signature
	// tokens by the representation their base posting list was served
	// from. Summed over the shards.
	ProbePostings     int64
	ProbeBitsetTokens int64
	ProbeSliceTokens  int64
	// VerifiedCandidates, PrunedByBound and MemoHits are the cumulative
	// verify-phase counters over every query served since the index was
	// built: candidates whose msim matrix was computed, candidates skipped
	// by the sound upper bounds (O(1) size-ratio bound or the rising top-k
	// floor), and segment-pair msim evaluations answered from the memo.
	// Summed over the shards.
	VerifiedCandidates int64
	PrunedByBound      int64
	MemoHits           int64
	// CacheHits and CacheMisses are the cumulative prepared-record cache
	// counters (one cache is shared across all shards; zero when the cache
	// is disabled).
	CacheHits, CacheMisses uint64
	// Theta and Tau are the join parameters fixed at build time.
	Theta float64
	Tau   int
	// SuggestedTau is the planner's live τ suggestion: the build-time τ
	// until the first re-anchor, the observed workload's most-chosen τ
	// afterwards (0 when planning is disabled).
	SuggestedTau int
	// Plans, PlanFallbacks and PlanReanchors count adaptive planning
	// decisions, planner fallbacks to the fixed configuration, and feedback
	// re-anchors after rebuilds; PlanDecisions splits Plans by chosen
	// configuration ("ufilter/t1", "auheur/t2", "audp/t3", ...). All zero
	// when planning is disabled. One planner is shared across all shards,
	// so these are request-level counters, not per-shard.
	Plans         int64
	PlanFallbacks int64
	PlanReanchors int64
	PlanDecisions map[string]int64
	// BuildTime is the construction time of the slowest shard's current
	// base index (shards build in parallel).
	BuildTime time.Duration
}

// View is one immutable snapshot of one shard: the per-shard kernels of the
// query paths ShardedView fans out. All its methods are read-only, lock-free
// and safe for unbounded concurrency; results reflect exactly the mutations
// published before Snapshot returned it.
type View struct {
	dx       *DynamicIndex
	base     *Index
	segs     []*segment
	records  []strutil.Record
	prepared []*core.PreparedRecord
	dead     []uint64
	avgSig   float64 // mean signature length over live records
	gen      int     // order generation of the base (see DynamicIndex.gen)
	// stats holds the shard's snapshot-time counts; ShardedView.Stats sums
	// them and adds the shard's live probe and verify counters.
	stats DynamicStats
}

// Record returns the record with the given stable ID, if it is live in this
// snapshot.
func (v *View) Record(id int) (strutil.Record, bool) {
	// Positions are writer state, so scan is by stable ID; the method is a
	// convenience for serving layers, not a hot path.
	for pos := range v.records {
		if v.records[pos].ID == id && v.alive(pos) {
			return v.records[pos], true
		}
	}
	return strutil.Record{}, false
}

// alive reports whether the record at a position is not tombstoned in this
// snapshot.
func (v *View) alive(pos int) bool {
	return v.dead[pos>>6]&(1<<(uint(pos)&63)) == 0
}

// scratch borrows a probe scratch from the index-wide pool, its arena sized
// to this snapshot's record count.
func (v *View) scratch() *probeScratch {
	return scratchFromPool(&v.dx.pool, len(v.records))
}

// candidatesRecord runs the hybrid count filter for one probe signature
// across the base index and every delta segment, returning the positions of
// live records whose overlap reached tau (aliasing the accumulator arena,
// valid until the next use of sc) and the filter tally. tau is the
// request's planned overlap constraint — any value in [1, build-τ] is sound
// against the build-time indexed signatures. Base lists in bitmap form go
// through the block accumulator; segment postings are always sparse slices.
func (v *View) candidatesRecord(sig pebble.Signature, tau int, sc *probeScratch) ([]int32, filterTally) {
	peb := sig.Pebbles
	acc := sc.acc
	acc.Begin(tau)
	var tally filterTally
	baseRecords := v.base.inv.Records()
	for a := 0; a < len(peb); {
		id := peb[a].ID
		b := a + 1
		for b < len(peb) && peb[b].ID == id {
			b++
		}
		mult := int32(b - a)
		a = b
		if id == pebble.NoID {
			continue
		}
		if bs := v.base.inv.Bitset(id); bs != nil {
			tally.bitsetTokens++
			tally.postings += acc.AddBitset(bs, mult, baseRecords)
			// Surplus counts of multi-occurrence records; their bitmap bits
			// are already accumulated and tallied, so no added T_τ cost.
			acc.AddPostings(bs.Residual(), mult)
		} else {
			tally.sliceTokens++
			tally.postings += acc.AddPostings(v.base.inv.Postings(id), mult)
		}
		for _, seg := range v.segs {
			tally.postings += acc.AddPostings(seg.inv.Postings(id), mult)
		}
	}
	tally.postings += acc.FlushDense(baseRecords)
	v.dx.noteProbe(tally)
	return acc.Collect(v.dead), tally
}

// lazyPrepared derives the prepared verification record of a query on first
// use and shares it across consumers — the sharded fan-out hands one to
// every shard, so the query is prepared at most once per request and not at
// all when no shard yields a candidate.
type lazyPrepared struct {
	once   sync.Once
	calc   *core.Calculator
	tokens []string
	pr     *core.PreparedRecord
}

func (lp *lazyPrepared) get() *core.PreparedRecord {
	lp.once.Do(func() { lp.pr = lp.calc.Prepare(lp.tokens) })
	return lp.pr
}

// QueryOpts carries per-request overrides of parameters that are otherwise
// fixed when an index is built. The zero value changes nothing.
type QueryOpts struct {
	// Theta overrides the verification threshold for this request; 0 keeps
	// the build-time θ. Values above the build θ are exact (the filter
	// over-admits, verification tightens). Values below it are best-effort:
	// the candidate set is still bounded by the build-time filter, so
	// matches whose similarity falls between the override and the build θ
	// are returned only when they happen to survive that filter.
	Theta float64
	// Workers bounds the verification parallelism of this request; 0 or 1
	// verifies sequentially on the calling goroutine (per shard, on a
	// sharded index — the shard fan-out itself always runs concurrently).
	Workers int
	// Plan selects adaptive per-request planning (PlanAuto, the default) or
	// the fixed build-time configuration (PlanFixed). Auto on an index built
	// with Options.Plan == PlanFixed still runs fixed — that index has no
	// planner.
	Plan PlanMode
	// ProbeTau (with ProbeMethod) pins this request's probe-side
	// configuration to one point of the planner's search space instead of
	// planning or using the build config: the request selects its probe
	// signature with ProbeMethod at min(ProbeTau, τ_build) and count-filters
	// at that τ. Any such configuration is sound against the build-time
	// index (τ′ ≤ τ_build only over-admits; verification is exact), so
	// results are bit-identical to every other configuration. 0 leaves Plan
	// in charge. Benchmarks use this to A/B the planner against each fixed
	// configuration on the same index.
	ProbeTau    int
	ProbeMethod pebble.Method
}

// thetaFor resolves the verification threshold a request runs at.
func (o Options) thetaFor(qo QueryOpts) float64 {
	if qo.Theta > 0 {
		return qo.Theta
	}
	return o.Theta
}

// minParallelVerify is the candidate count below which a per-query
// verification request ignores QueryOpts.Workers: spawning goroutines for a
// handful of candidates costs more than it saves.
const minParallelVerify = 64

// pinnedConfig resolves a QueryOpts probe-side override into a sound
// configuration: τ clamps into [1, τ_build] (larger values would demand
// overlap the indexed τ_build-signatures never promise) and the U-Filter
// fixes τ at 1, exactly as a build with that method would.
func pinnedConfig(qo QueryOpts, buildTau int) (pebble.Method, int) {
	tau := qo.ProbeTau
	if tau > buildTau {
		tau = buildTau
	}
	if tau < 1 || qo.ProbeMethod == pebble.UFilter {
		tau = 1
	}
	return qo.ProbeMethod, tau
}

// floorTracker is the shared rising floor of one top-k operation: the best
// k-th-place similarity any participant (verify worker or shard) has proven
// so far, maintained as a CAS-max over float bits. Every full k-heap's root
// lower-bounds the global k-th best match, so a candidate whose upper bound
// sits below the tracker can be skipped without changing the result.
// Similarities are non-negative, so the float ordering matches the unsigned
// bit ordering and the zero value is a no-op floor.
type floorTracker struct {
	bits atomic.Uint64
}

func (f *floorTracker) floor() float64 {
	return math.Float64frombits(f.bits.Load())
}

func (f *floorTracker) raise(v float64) {
	if v <= 0 {
		return
	}
	nb := math.Float64bits(v)
	for {
		cur := f.bits.Load()
		if math.Float64frombits(cur) >= v {
			return
		}
		if f.bits.CompareAndSwap(cur, nb) {
			return
		}
	}
}

// orderByUpperBound fills sc.ubs with the candidates paired with their O(1)
// partition-size upper bound, ordered best-first (ties by position for
// determinism). Verifying in this order lets the scheduler stop at the first
// candidate whose bound falls under the rising floor: all later bounds are
// no larger.
func (v *View) orderByUpperBound(sc *probeScratch, cands []int32, pq *core.PreparedRecord) []candUB {
	ubs := sc.ubs[:0]
	for _, r := range cands {
		ubs = append(ubs, candUB{r: r, ub: core.SizeRatioUpper(v.prepared[r], pq)})
	}
	sc.ubs = ubs
	slices.SortFunc(ubs, func(a, b candUB) int {
		if a.ub != b.ub {
			if a.ub > b.ub {
				return -1
			}
			return 1
		}
		if a.r != b.r {
			if a.r < b.r {
				return -1
			}
			return 1
		}
		return 0
	})
	return ubs
}

// verifyCandidatesParallel verifies the candidates across qo.Workers workers
// with one lazily built similarity scratch each, feeding every confirmed
// match to sink. sink is called from worker w only (no synchronisation
// needed on per-worker accumulators); the error is the context error when
// the run was cut short. The returned tally folds the workers' verify
// counters.
func (v *View) verifyCandidatesParallel(ctx context.Context, cands []int32, pq *core.PreparedRecord, theta float64, workers int, sink func(w int, m QueryMatch)) (verifyTally, error) {
	scratches := make([]*core.Scratch, workers)
	noMemo := v.dx.opts.NoVerifyMemo
	err := parallelForWorkersCtx(ctx, len(cands), workers, func(w, i int) {
		wsc := scratches[w]
		if wsc == nil {
			wsc = core.NewScratch()
			wsc.DisableMemo = noMemo
			scratches[w] = wsc
		}
		r := cands[i]
		if val, ok := v.dx.calc.VerifyPrepared(v.prepared[r], pq, theta, wsc); ok {
			sink(w, QueryMatch{Record: v.records[r].ID, Similarity: val})
		}
	})
	var vt verifyTally
	for _, wsc := range scratches {
		vt.addScratch(wsc)
	}
	return vt, err
}

// verifyTopKParallel is the rising-floor analogue of verifyCandidatesParallel
// for top-k requests: candidates arrive in upper-bound order, every worker
// keeps its own k-bounded heap in heaps[w], and the shared tracker carries
// the best proven floor across workers (and shards). A candidate is skipped
// when its bound sits below the live floor minus the verify slack — by then
// k matches at least that good are known to exist, so the skip is exact.
func (v *View) verifyTopKParallel(ctx context.Context, ubs []candUB, pq *core.PreparedRecord, theta float64, k, workers int, ft *floorTracker, heaps []topKHeap) (verifyTally, error) {
	scratches := make([]*core.Scratch, workers)
	noMemo := v.dx.opts.NoVerifyMemo
	var pruned atomic.Int64
	err := parallelForWorkersCtx(ctx, len(ubs), workers, func(w, i int) {
		wsc := scratches[w]
		if wsc == nil {
			wsc = core.NewScratch()
			wsc.DisableMemo = noMemo
			scratches[w] = wsc
		}
		h := &heaps[w]
		floor := theta
		if f := ft.floor(); f > floor {
			floor = f
		}
		if len(h.entries) == k {
			if hf := h.entries[0].Similarity; hf > floor {
				floor = hf
			}
		}
		if ubs[i].ub < floor-core.BoundSlack {
			pruned.Add(1)
			return
		}
		r := ubs[i].r
		// floor, not theta: a candidate below the floor cannot enter any
		// final top-k, and one exactly at it still passes (ok is ≥).
		if val, ok := v.dx.calc.VerifyPrepared(v.prepared[r], pq, floor, wsc); ok {
			h.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, k)
			if len(h.entries) == k {
				ft.raise(h.entries[0].Similarity)
			}
		}
	})
	var vt verifyTally
	for _, wsc := range scratches {
		vt.addScratch(wsc)
	}
	vt.pruned += pruned.Load()
	return vt, err
}

// probeRecordPrepared runs one shard's filter-and-verify step of
// ShardedView.ProbeRecordCtx for a ready-made probe signature, its planned
// overlap constraint and a lazily shared prepared query; results are
// unordered (the router merges every shard's results, then sorts). A
// non-nil ex accumulates the observed candidate count and verification wall
// time for the planner's feedback loop (the fan-out hands one ex to every
// shard).
func (v *View) probeRecordPrepared(ctx context.Context, sig pebble.Signature, tau int, lp *lazyPrepared, qo QueryOpts, ex *planner.Exec) ([]QueryMatch, error) {
	theta := v.dx.opts.thetaFor(qo)
	sc := v.scratch()
	cands, _ := v.candidatesRecord(sig, tau, sc)
	if ex != nil {
		ex.Candidates.Add(int64(len(cands)))
	}
	var out []QueryMatch
	var err error
	var vt verifyTally
	if len(cands) > 0 {
		verifyStart := time.Now()
		defer func() { // the verify loop has several exits; one timer covers all
			if ex != nil {
				ex.VerifyNs.Add(time.Since(verifyStart).Nanoseconds())
				ex.Pruned.Add(vt.pruned)
			}
			v.dx.noteVerify(vt)
		}()
		pq := lp.get()
		if qo.Workers > 1 && len(cands) >= minParallelVerify {
			outs := make([][]QueryMatch, qo.Workers)
			vt, err = v.verifyCandidatesParallel(ctx, cands, pq, theta, qo.Workers, func(w int, m QueryMatch) {
				outs[w] = append(outs[w], m)
			})
			if err == nil {
				for _, part := range outs {
					out = append(out, part...)
				}
			}
		} else {
			sim := sc.simScratch()
			sim.DisableMemo = v.dx.opts.NoVerifyMemo
			before := sim.Stats
			for i, r := range cands {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					err = ctx.Err()
					break
				}
				if val, ok := v.dx.calc.VerifyPrepared(v.prepared[r], pq, theta, sim); ok {
					out = append(out, QueryMatch{Record: v.records[r].ID, Similarity: val})
				}
			}
			// The sim scratch is pooled, so its counters span operations;
			// diff against the snapshot for this probe's share.
			vt.verified = sim.Stats.Verified - before.Verified
			vt.pruned = sim.Stats.PrunedByBound - before.PrunedByBound
			vt.memoHits = sim.Stats.MemoHits - before.MemoHits
		}
	}
	sc.release(&v.dx.pool)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// queryTopKPrepared runs the thresholded scan and bounded-heap verification
// for a ready-made signature and lazily shared prepared query, returning the
// unsorted heap (the sharded router folds several shards' heaps together
// before sorting once). With qo.Workers > 1 each worker keeps its own
// k-bounded heap and the heaps are folded at the end — sound because the
// top k of the union is contained in the union of per-worker top k's.
//
// Unless Options.NoVerifyPrune is set, candidates are verified in descending
// order of their O(1) similarity upper bound against a rising floor: the
// larger of θ, this scan's heap root once full, and the shared tracker ft
// (which carries the best floor observed by concurrent workers and sibling
// shards). A candidate whose bound falls below the floor — and, in the
// ordered sequential scan, every candidate after it — is provably outside
// the final top k, so the pruned scan returns bit-identical results.
func (v *View) queryTopKPrepared(ctx context.Context, sig pebble.Signature, tau int, lp *lazyPrepared, k int, qo QueryOpts, ex *planner.Exec, ft *floorTracker) (topKHeap, error) {
	theta := v.dx.opts.thetaFor(qo)
	sc := v.scratch()
	cands, _ := v.candidatesRecord(sig, tau, sc)
	if ex != nil {
		ex.Candidates.Add(int64(len(cands)))
	}
	var heap topKHeap
	var err error
	var vt verifyTally
	if len(cands) > 0 {
		verifyStart := time.Now()
		defer func() {
			if ex != nil {
				ex.VerifyNs.Add(time.Since(verifyStart).Nanoseconds())
				ex.Pruned.Add(vt.pruned)
			}
			v.dx.noteVerify(vt)
		}()
		pq := lp.get()
		prune := !v.dx.opts.NoVerifyPrune
		if ft == nil {
			ft = &floorTracker{}
		}
		switch {
		case qo.Workers > 1 && len(cands) >= minParallelVerify && prune:
			heaps := make([]topKHeap, qo.Workers)
			ubs := v.orderByUpperBound(sc, cands, pq)
			vt, err = v.verifyTopKParallel(ctx, ubs, pq, theta, k, qo.Workers, ft, heaps)
			if err == nil {
				for _, h := range heaps {
					for _, m := range h.entries {
						heap.offer(m, k)
					}
				}
			}
		case qo.Workers > 1 && len(cands) >= minParallelVerify:
			heaps := make([]topKHeap, qo.Workers)
			vt, err = v.verifyCandidatesParallel(ctx, cands, pq, theta, qo.Workers, func(w int, m QueryMatch) {
				heaps[w].offer(m, k)
			})
			if err == nil {
				// The fold is O(workers·k·log k); a cancelled request skips
				// it — the result is discarded anyway.
				for _, h := range heaps {
					for _, m := range h.entries {
						heap.offer(m, k)
					}
				}
			}
		case prune:
			sim := sc.simScratch()
			sim.DisableMemo = v.dx.opts.NoVerifyMemo
			before := sim.Stats
			ubs := v.orderByUpperBound(sc, cands, pq)
			for i := range ubs {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					err = ctx.Err()
					break
				}
				floor := theta
				if f := ft.floor(); f > floor {
					floor = f
				}
				if len(heap.entries) == k {
					if hf := heap.entries[0].Similarity; hf > floor {
						floor = hf
					}
				}
				if ubs[i].ub < floor-core.BoundSlack {
					// Bounds only shrink from here (ubs is sorted) and the
					// floor only rises: the whole tail is pruned.
					vt.pruned += int64(len(ubs) - i)
					break
				}
				r := ubs[i].r
				if val, ok := v.dx.calc.VerifyPrepared(v.prepared[r], pq, floor, sim); ok {
					heap.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, k)
					if len(heap.entries) == k {
						ft.raise(heap.entries[0].Similarity)
					}
				}
			}
			vt.verified += sim.Stats.Verified - before.Verified
			vt.pruned += sim.Stats.PrunedByBound - before.PrunedByBound
			vt.memoHits += sim.Stats.MemoHits - before.MemoHits
		default:
			sim := sc.simScratch()
			sim.DisableMemo = v.dx.opts.NoVerifyMemo
			before := sim.Stats
			for i, r := range cands {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					err = ctx.Err()
					break
				}
				if val, ok := v.dx.calc.VerifyPrepared(v.prepared[r], pq, theta, sim); ok {
					heap.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, k)
				}
			}
			vt.verified = sim.Stats.Verified - before.Verified
			vt.pruned = sim.Stats.PrunedByBound - before.PrunedByBound
			vt.memoHits = sim.Stats.MemoHits - before.MemoHits
		}
	}
	sc.release(&v.dx.pool)
	if err != nil {
		return topKHeap{}, err
	}
	return heap, nil
}

// topKHeap is a bounded min-heap on similarity (ties broken towards keeping
// the smaller record ID), so the root is always the weakest retained match.
type topKHeap struct {
	entries []QueryMatch
}

// sorted returns the retained matches ordered by descending similarity with
// ascending-ID ties — the result order of QueryTopK. The heap is consumed.
func (h *topKHeap) sorted() []QueryMatch {
	out := h.entries
	sort.Slice(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		return out[a].Record < out[b].Record
	})
	return out
}

// less orders the heap: the root must be the entry to evict first, i.e. the
// lowest similarity, and among equals the largest record ID.
func (h *topKHeap) less(a, b int) bool {
	ea, eb := h.entries[a], h.entries[b]
	if ea.Similarity != eb.Similarity {
		return ea.Similarity < eb.Similarity
	}
	return ea.Record > eb.Record
}

func (h *topKHeap) offer(m QueryMatch, k int) {
	if len(h.entries) < k {
		h.entries = append(h.entries, m)
		for i := len(h.entries) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.less(i, parent) {
				break
			}
			h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
			i = parent
		}
		return
	}
	// Full: replace the root if m beats it, then sift down.
	root := h.entries[0]
	if m.Similarity < root.Similarity ||
		(m.Similarity == root.Similarity && m.Record > root.Record) {
		return
	}
	h.entries[0] = m
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.entries) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.entries) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
}

// planTauOf is the Stats.PlanTau value of a batch decision: the planned τ,
// or 0 when the batch ran the fixed build-time configuration.
func planTauOf(d planner.Decision) int {
	if !d.Planned {
		return 0
	}
	return d.Tau
}

// Live returns the snapshot's live records in position order. The slice is
// freshly allocated; the records themselves are shared and immutable.
func (v *View) Live() []strutil.Record {
	out := make([]strutil.Record, 0, v.stats.Live)
	for pos := range v.records {
		if v.alive(pos) {
			out = append(out, v.records[pos])
		}
	}
	return out
}
