// Package join implements the unified string similarity join of Section 3:
// filter-and-verification joins that generate pebble signatures for both
// collections, find candidate pairs sharing enough signature pebbles
// (Algorithm 3 for U-Filter, Algorithm 6 for AU-Filter), and verify the
// survivors with the unified similarity measure of internal/core.
//
// The pipeline is built once and probed many times: BuildIndex interns
// every pebble into a dense uint32 ID (global frequency order), selects
// signatures, and materialises the ID-indexed inverted index; Probe and
// SelfJoin then generate candidates with per-probe-record count arrays
// (classic count filtering) — no string hashing and no map[pair]int in the
// hot path. Join and SelfJoin are thin compositions of these stages, and
// FilterProfile re-derives signatures for many τ values from one prepared
// pebble set (used by the Section 4 estimator).
//
// ShardedIndex extends the pipeline to online serving: it owns the pebble
// order and routes records to DynamicIndex shards, each a frozen base Index
// plus immutable delta segments for inserted records and a tombstone bitmap
// for removed ones, with snapshot Views published by atomic pointer swap so
// queries — all through ShardedView — run lock-free while the catalog
// mutates (the paper fixes both collections up front; the dynamic layer is
// this implementation's extension for the serving workload — see
// ARCHITECTURE.md).
package join

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// Pair is one join result: the identifiers of the matched records and their
// unified similarity.
type Pair struct {
	S, T       int
	Similarity float64
}

// Stats records what happened during one join execution; the experiment
// harness uses it to regenerate the paper's tables and figures.
type Stats struct {
	// SignatureTime, FilterTime and VerifyTime are the wall-clock durations
	// of signature generation + indexing, candidate generation, and
	// verification — elapsed time per stage, NOT CPU time summed across
	// workers or shards. A stage that runs W workers (or fans out across N
	// shards) for d seconds reports d, not W·d; the three values therefore
	// add up to the end-to-end latency a caller observed, and comparing them
	// across runs with different worker counts compares wall-clock speed,
	// not total work.
	SignatureTime time.Duration
	FilterTime    time.Duration
	VerifyTime    time.Duration
	// ProcessedPairs is T_τ of the cost model: the number of (S, T)
	// occurrences touched while traversing common posting lists. For
	// self-joins this counts each unordered pair at most once (mirrored and
	// diagonal pairs are never generated).
	ProcessedPairs int64
	// Candidates is V_τ: the number of distinct pairs that reached
	// verification (distinct unordered pairs for self-joins).
	Candidates int
	// ShardCandidates breaks Candidates down per shard on a ShardedView
	// probe (one entry per shard, one shard included); its entries sum to
	// Candidates. It is nil on static Index paths.
	ShardCandidates []int
	// BitsetTokens and SliceTokens split the probe-token lookups of the
	// filter stage by posting representation: tokens whose base posting list
	// was served from the packed bitmap form versus the classic sorted
	// slice. Their sum is the number of (probe record, known token) lookups;
	// a zero BitsetTokens means the hybrid layout never engaged (classic
	// filter, or no list reached the density cutoff).
	BitsetTokens int64
	SliceTokens  int64
	// Results is the number of pairs whose unified similarity reached θ.
	Results int
	// VerifiedCandidates counts the candidates whose msim matrix was actually
	// computed: Candidates minus the pairs the O(1) partition-size bound (or
	// the rising top-k floor) rejected before any segment work.
	VerifiedCandidates int64
	// PrunedByBound counts the candidates skipped by those sound upper
	// bounds. VerifiedCandidates + PrunedByBound ≤ Candidates (a candidate
	// with out-of-range ids counts as neither).
	PrunedByBound int64
	// MemoHits counts segment-pair msim evaluations answered from the
	// per-worker memo instead of being recomputed.
	MemoHits int64
	// PlanTau is the overlap constraint the adaptive planner picked for this
	// probe batch (0 on unplanned paths — fixed configuration or static
	// Index probes).
	PlanTau int
	// AvgSignatureS / AvgSignatureT are the mean signature lengths.
	AvgSignatureS float64
	AvgSignatureT float64
}

// TotalTime returns the end-to-end join time recorded in the stats.
func (s Stats) TotalTime() time.Duration {
	return s.SignatureTime + s.FilterTime + s.VerifyTime
}

// Options configures a join execution.
type Options struct {
	// Theta is the join threshold θ ∈ [0, 1].
	Theta float64
	// Tau is the overlap constraint τ ≥ 1 (ignored by the U-Filter method,
	// which always uses 1).
	Tau int
	// Method selects the signature-selection algorithm.
	Method pebble.Method
	// Workers is the number of goroutines used for signature generation,
	// candidate filtering and verification; 0 means GOMAXPROCS.
	Workers int
	// Calculator overrides the unified-similarity calculator; nil means a
	// default calculator over the joiner's context.
	Calculator *core.Calculator
	// ClassicFilter disables the hybrid bitmap posting layout: every
	// posting list stays in sorted-slice form and the count filter runs
	// entry-at-a-time. Candidate sets are identical either way (the
	// property tests pin this); the toggle exists as the baseline for
	// benchmarks and the equivalence tests themselves.
	ClassicFilter bool
	// Plan selects the index-wide planning default for dynamic and sharded
	// indexes: PlanAuto (zero value) installs the adaptive per-query
	// planner, PlanFixed disables it entirely and pins the build-time
	// Method/Tau on every request (today's pre-planner behaviour). Static
	// Index probes are always fixed.
	Plan PlanMode
	// NoVerifyPrune disables the rising-threshold verify scheduler on top-k
	// paths: candidates are verified in candidate order at the fixed θ, as
	// before PR 9. Results are bit-identical either way (the property tests
	// pin this); the toggle is the baseline for those tests and benchmarks.
	NoVerifyPrune bool
	// NoVerifyMemo disables the per-worker msim memo. Same contract: results
	// are bit-identical, the toggle exists for equivalence tests and as an
	// escape hatch for memory-constrained deployments.
	NoVerifyMemo bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) tau() int {
	if o.Method == pebble.UFilter || o.Tau < 1 {
		return 1
	}
	return o.Tau
}

// Joiner joins two collections of records under a fixed similarity context.
type Joiner struct {
	Ctx *sim.Context

	gen  *pebble.Generator
	calc *core.Calculator
}

// NewJoiner creates a Joiner for the given context.
func NewJoiner(ctx *sim.Context) *Joiner {
	if ctx != nil && ctx.Tax != nil {
		// Build the LCA index up front so that concurrent verification
		// goroutines only ever read the taxonomy.
		ctx.Tax.Finalize()
	}
	return &Joiner{Ctx: ctx, gen: pebble.NewGenerator(ctx), calc: core.NewCalculator(ctx)}
}

// Generator exposes the pebble generator (shared with the estimator).
func (j *Joiner) Generator() *pebble.Generator { return j.gen }

// Calculator exposes the unified-similarity calculator.
func (j *Joiner) Calculator() *core.Calculator { return j.calc }

// BuildOrder constructs the global pebble frequency order over the given
// collections.
func (j *Joiner) BuildOrder(collections ...[]strutil.Record) *pebble.Order {
	order := pebble.NewOrder()
	for _, coll := range collections {
		for _, rec := range coll {
			p, _ := j.gen.Pebbles(rec.Tokens)
			order.Add(p)
		}
	}
	return order
}

// Index is a prebuilt probe target: the interned pebble order, the
// signatures and prepared verification records of the indexed collection,
// and the ID-indexed inverted index, all computed once. An Index is safe for
// concurrent probing and is the build-once/probe-many half of the join
// pipeline: repeated joins against the same collection (or a stream of
// single-record queries) skip order construction, signature selection,
// index building and verification preparation entirely. Holding an Index
// therefore costs the prepared records' memory (segment tables, gram sets
// and rule/taxonomy derivations per record) on top of the inverted index.
type Index struct {
	joiner *Joiner
	opts   Options
	tau    int
	calc   *core.Calculator

	order    *pebble.Order
	sel      *pebble.Selector
	records  []strutil.Record
	sigs     []pebble.Signature
	prepared []*core.PreparedRecord
	inv      *invindex.Index

	// sigIDs is the compact signature form of a snapshot-restored index:
	// per-record interned-ID multisets, aliasing the decoded snapshot's
	// buffers. A restored index sets sigIDs and leaves sigs nil — the
	// indexed side of the pipeline only ever reads signature IDs and
	// lengths (posting lists, count filter, capture), and a []pebble.Pebble
	// materialization of millions of entries just to carry a uint32 each
	// dominated restore time. Self-join entry points (which read full
	// signatures) are only reachable through freshly built indexes, where
	// sigs is always populated. Use sigLenAt/appendSigIDsAt instead of
	// touching either field directly.
	sigIDs [][]uint32

	// BuildTime is the wall-clock duration of order construction, signature
	// selection, inverted-index building and verification preparation.
	BuildTime time.Duration
	avgSig    float64

	scratch sync.Pool // *probeScratch, reused across ProbeRecord calls
}

// probeScratch is the per-worker probe state: the block accumulator holding
// the arena-allocated overlap counters and touched list, and the
// verification scratch of the prepared similarity engine. merged collects
// shard-remapped candidate positions when a sharded view fans one probe
// record out across shard filters (each shard reuses the accumulator, so
// survivors are staged here).
type probeScratch struct {
	acc    *invindex.Accumulator
	merged []int32
	sim    *core.Scratch
	// ubs is the verify scheduler's ordering arena: candidates paired with
	// their O(1) similarity upper bound, sorted best-first on top-k paths.
	ubs []candUB
}

// candUB pairs a candidate record position with its partition-size-ratio
// upper bound, the sort key of the rising-threshold verify scheduler.
type candUB struct {
	r  int32
	ub float64
}

// scratchFromPool borrows a probe scratch from pool (allocating on a cold
// pool) with its accumulator arena sized for numRecords. A nil pool yields
// an ephemeral scratch.
func scratchFromPool(pool *sync.Pool, numRecords int) *probeScratch {
	var sc *probeScratch
	if pool != nil {
		sc, _ = pool.Get().(*probeScratch)
	}
	if sc == nil {
		sc = &probeScratch{acc: invindex.NewAccumulator()}
	}
	sc.acc.Reset(numRecords)
	return sc
}

// release returns a scratch to its pool (no-op for ephemeral scratches).
func (sc *probeScratch) release(pool *sync.Pool) {
	if pool != nil {
		pool.Put(sc)
	}
}

// simScratch lazily builds the similarity scratch of the verification step
// (candidate-only paths never need one).
func (sc *probeScratch) simScratch() *core.Scratch {
	if sc.sim == nil {
		sc.sim = core.NewScratch()
	}
	return sc.sim
}

// filterTally aggregates the observability counters of the filter stage:
// postings is T_τ of the cost model (posting entries and bitmap bits
// accumulated), bitsetTokens/sliceTokens split the token lookups by posting
// representation.
type filterTally struct {
	postings     int64
	bitsetTokens int64
	sliceTokens  int64
}

func (t *filterTally) add(o filterTally) {
	t.postings += o.postings
	t.bitsetTokens += o.bitsetTokens
	t.sliceTokens += o.sliceTokens
}

// BuildIndex computes the global pebble order of the records, selects their
// signatures and builds the inverted index under the given options
// (Options.Tau and Options.Theta are fixed at build time; AutoTau-style
// re-tuning requires a rebuild).
func (j *Joiner) BuildIndex(records []strutil.Record, opts Options) *Index {
	return j.buildIndex(records, j.BuildOrder(records), opts, nil)
}

// buildIndex builds an Index over records with an externally supplied order
// (Join uses an order spanning both collections). A non-nil prepared slice
// supplies ready-made verification records positionally (preparation is
// order-independent, so the dynamic index's rebuild passes the survivors'
// records through unchanged instead of re-deriving them).
func (j *Joiner) buildIndex(records []strutil.Record, order *pebble.Order, opts Options, prepared []*core.PreparedRecord) *Index {
	start := time.Now()
	tau := opts.tau()
	calc := j.calcFor(opts)
	sel := pebble.NewSelector(j.gen, order, opts.Theta)
	sigs := j.signatures(records, sel, opts.Method, tau)
	inv := invindex.New(order.NumKeys())
	totalLen := 0
	var ids []uint32
	for i := range sigs {
		ids = appendSignatureIDs(ids[:0], sigs[i])
		inv.Add(i, ids)
		totalLen += sigs[i].Len()
	}
	hybridizeIndex(inv, order, opts)
	if prepared == nil {
		prepared = prepareRecords(records, calc)
	}
	ix := &Index{
		joiner:   j,
		opts:     opts,
		tau:      tau,
		calc:     calc,
		order:    order,
		sel:      sel,
		records:  records,
		sigs:     sigs,
		prepared: prepared,
		inv:      inv,
	}
	if len(records) > 0 {
		ix.avgSig = float64(totalLen) / float64(len(records))
	}
	ix.BuildTime = time.Since(start)
	return ix
}

// minBitsetList is the floor of the hybrid density cutoff: below this list
// length the slice walk beats the fixed per-word costs of the bitmap path
// regardless of corpus size.
const minBitsetList = 16

// hybridCutoff is the density cutoff of the hybrid posting layout for a
// corpus of numRecords records: lists at least this long (≈ 1/64 of the
// corpus, i.e. averaging one set bit per bitmap word, floored at
// minBitsetList) move to packed bitmap form.
func hybridCutoff(numRecords int) int {
	c := numRecords >> 6
	if c < minBitsetList {
		c = minBitsetList
	}
	return c
}

// hybridizeIndex applies the hybrid posting conversion to a freshly built
// inverted index unless the options pin the classic layout. The order's
// maximum document frequency upper-bounds every frozen key's list length,
// so when it cannot reach the cutoff the conversion scan is skipped
// entirely; an order with a dynamic region has stale frequencies (inserted
// records are uncounted), so the scan runs unconditionally there — a missed
// skip costs one pass over the postings, never correctness.
func hybridizeIndex(inv *invindex.Index, order *pebble.Order, opts Options) {
	if opts.ClassicFilter || inv.Records() == 0 {
		return
	}
	cut := hybridCutoff(inv.Records())
	if order.MaxFrequency() < cut && order.DynamicCount() == 0 {
		return
	}
	inv.Hybridize(cut)
}

// Records returns the indexed collection.
func (ix *Index) Records() []strutil.Record { return ix.records }

// Order exposes the interned global order the index was built with.
func (ix *Index) Order() *pebble.Order { return ix.order }

// AvgSignature returns the mean signature length of the indexed records.
func (ix *Index) AvgSignature() float64 { return ix.avgSig }

// Probe joins a probe collection against the prebuilt index and returns
// the matching (indexed, probe) pairs sorted by identifiers. The reported
// SignatureTime covers only the probe side — the build cost is paid once in
// BuildTime.
func (ix *Index) Probe(records []strutil.Record) ([]Pair, Stats) {
	return ix.probe(records, ix.opts, 0)
}

// SelfJoin joins the indexed collection with itself, returning each
// unordered pair (i < j) exactly once. Candidate generation walks only
// postings of records preceding the probe record, so mirrored and diagonal
// pairs are never materialised and Stats counts each unordered pair once.
func (ix *Index) SelfJoin() ([]Pair, Stats) {
	return ix.probeSignatures(ix.records, ix.sigs, ix.prepared, ix.opts, true, ix.BuildTime)
}

// probe generates probe-side signatures and prepared verification records
// and delegates to probeSignatures. extraSigTime is folded into the reported
// SignatureTime (the legacy Join entry points count index building there),
// as is the probe-side preparation — both are per-record preprocessing paid
// once per probe collection.
func (ix *Index) probe(records []strutil.Record, opts Options, extraSigTime time.Duration) ([]Pair, Stats) {
	start := time.Now()
	sigs := ix.joiner.signatures(records, ix.sel, opts.Method, ix.tau)
	prep := prepareRecords(records, ix.calc)
	return ix.probeSignatures(records, sigs, prep, opts, false, extraSigTime+time.Since(start))
}

// probeSignatures runs candidate generation and verification for
// ready-made probe signatures and prepared records.
func (ix *Index) probeSignatures(records []strutil.Record, sigs []pebble.Signature, prep []*core.PreparedRecord, opts Options, self bool, sigTime time.Duration) ([]Pair, Stats) {
	return runProbeStages(ix.calc, opts, ix.target(self), records, sigs, prep, self, sigTime)
}

// target reduces the index to the probeTarget the shared probe stages need.
func (ix *Index) target(self bool) probeTarget {
	return probeTarget{
		records:  ix.records,
		prepared: ix.prepared,
		avgSig:   ix.avgSig,
		candidates: func(ctx context.Context, sigs []pebble.Signature, workers int) ([]pairKey, filterTally, error) {
			return ix.candidates(ctx, sigs, self, workers)
		},
	}
}

// probeTarget is the indexed side of a probe — a static Index or a dynamic
// snapshot View — reduced to what the shared probe stages need.
type probeTarget struct {
	records    []strutil.Record
	prepared   []*core.PreparedRecord
	avgSig     float64
	candidates func(ctx context.Context, sigs []pebble.Signature, workers int) ([]pairKey, filterTally, error)
}

// runProbeStages is the batch form of the streaming pipeline: it collects
// every emitted pair from runProbeStream and orders the result by (S, T)
// identifiers. It never cancels, so the returned statistics are complete.
func runProbeStages(calc *core.Calculator, opts Options, tgt probeTarget, records []strutil.Record, sigs []pebble.Signature, prep []*core.PreparedRecord, self bool, sigTime time.Duration) ([]Pair, Stats) {
	var results []Pair
	stats, _ := runProbeStream(context.Background(), calc, opts, tgt, records, sigs, prep, self, sigTime, func(p Pair) bool {
		results = append(results, p)
		return true
	})
	sort.Slice(results, func(a, b int) bool {
		if results[a].S != results[b].S {
			return results[a].S < results[b].S
		}
		return results[a].T < results[b].T
	})
	return results, stats
}

// QueryMatch is one result of a single-record probe: an indexed record and
// its unified similarity to the query.
type QueryMatch struct {
	Record     int
	Similarity float64
}

// candidates runs count filtering of probe signatures against the index.
func (ix *Index) candidates(ctx context.Context, sigs []pebble.Signature, self bool, workers int) ([]pairKey, filterTally, error) {
	return countFilterCandidates(ctx, ix.inv, len(ix.records), sigs, ix.tau, self, workers, &ix.scratch)
}

// countFilterCandidates runs parallel count filtering of the probe
// signatures against an inverted index over numRecords records, returning
// every (indexed, probe) pair whose signature-pebble overlap reaches τ,
// plus the filter tally (T_τ and the representation split). In self mode
// only postings of records preceding the probe record are counted, so
// mirrored and diagonal pairs never appear. Worker scratch is borrowed from
// pool (nil for ephemeral scratch).
func countFilterCandidates(ctx context.Context, inv *invindex.Index, numRecords int, sigs []pebble.Signature, tau int, self bool, workers int, pool *sync.Pool) ([]pairKey, filterTally, error) {
	return parallelCandidates(ctx, len(sigs), numRecords, workers, pool, func(sc *probeScratch, t int) ([]int32, filterTally) {
		limit := numRecords
		if self {
			limit = t
		}
		return countFilterRecord(inv, sigs[t], tau, limit, sc)
	})
}

// parallelCandidates is the shared driver of parallel candidate
// generation: it runs record(sc, t) for every probe record t in [0, n)
// across the given number of workers (GOMAXPROCS when ≤ 0), each with a
// pooled probe scratch whose arena is sized to numRecords, and merges the
// per-worker candidate chunks and filter tallies. The static count filter
// and the dynamic snapshot filter differ only in the record callback.
// Workers check ctx between probe records; on cancellation the partial
// candidate set is discarded and the context error returned.
func parallelCandidates(ctx context.Context, n, numRecords, workers int, pool *sync.Pool, record func(sc *probeScratch, t int) ([]int32, filterTally)) ([]pairKey, filterTally, error) {
	var tally filterTally
	if n == 0 || numRecords == 0 {
		return nil, tally, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type chunk struct {
		cands []pairKey
		tally filterTally
	}
	chunks := make([]chunk, workers)
	run := func(w, start, step int) {
		sc := scratchFromPool(pool, numRecords)
		var out []pairKey
		var sum filterTally
		for t := start; t < n; t += step {
			if ctx.Err() != nil {
				break
			}
			recs, ft := record(sc, t)
			sum.add(ft)
			for _, r := range recs {
				out = append(out, pairKey{int(r), t})
			}
		}
		sc.release(pool)
		chunks[w] = chunk{out, sum}
	}
	if workers == 1 {
		run(0, 0, 1)
	} else {
		// Strided assignment: in self mode the work per probe record grows
		// linearly with its index (only postings < t are counted), so
		// contiguous chunks would make the last worker the straggler.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			w := w
			goPipeline(func() {
				defer wg.Done()
				run(w, w, workers)
			})
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, tally, err
	}
	var cands []pairKey
	total := 0
	for i := range chunks {
		total += len(chunks[i].cands)
	}
	cands = make([]pairKey, 0, total)
	for i := range chunks {
		cands = append(cands, chunks[i].cands...)
		tally.add(chunks[i].tally)
	}
	return cands, tally, nil
}

// countFilterRecord is the hybrid count filter for one probe record: for
// every distinct interned ID of the probe signature (with its
// multiplicity), it folds the ID's posting list — word-parallel through the
// block accumulator for bitmap-form lists, entry-at-a-time for slice-form
// lists — into per-record overlap counters, considering only indexed
// records < limit. It returns the records whose overlap reached τ (aliasing
// the accumulator arena, valid until the next call) and the filter tally.
// The counters are left zeroed for reuse.
func countFilterRecord(inv *invindex.Index, sig pebble.Signature, tau, limit int, sc *probeScratch) ([]int32, filterTally) {
	peb := sig.Pebbles
	acc := sc.acc
	acc.Begin(tau)
	var tally filterTally
	for a := 0; a < len(peb); {
		id := peb[a].ID
		b := a + 1
		for b < len(peb) && peb[b].ID == id {
			b++
		}
		mult := int32(b - a)
		a = b
		if id == pebble.NoID {
			continue // unknown key: no indexed record can carry it
		}
		if bs := inv.Bitset(id); bs != nil {
			tally.bitsetTokens++
			tally.postings += acc.AddBitset(bs, mult, limit)
			if res := bs.Residual(); len(res) != 0 {
				if limit < inv.Records() {
					cut := sort.Search(len(res), func(k int) bool { return res[k].Record >= limit })
					res = res[:cut]
				}
				// The residual carries only the surplus counts of records
				// whose bitmap bit was already accumulated (and already
				// tallied as processed postings), so its entries add overlap
				// but no new T_τ cost.
				acc.AddPostings(res, mult)
			}
			continue
		}
		tally.sliceTokens++
		postings := inv.Postings(id)
		if limit < inv.Records() {
			// Posting lists are sorted by record, so the self-join
			// restriction to records < limit is a prefix.
			cut := sort.Search(len(postings), func(k int) bool { return postings[k].Record >= limit })
			postings = postings[:cut]
		}
		tally.postings += acc.AddPostings(postings, mult)
	}
	tally.postings += acc.FlushDense(limit)
	return acc.Collect(nil), tally
}

// Join executes the filter-and-verification join between two record
// collections and returns the matching pairs together with execution
// statistics. The result pairs are sorted by (S, T) identifiers. Join is
// BuildIndex + Probe with a shared global order spanning both collections;
// workloads joining against the same collection repeatedly should hold on
// to a BuildIndex result instead.
func (j *Joiner) Join(s, t []strutil.Record, opts Options) ([]Pair, Stats) {
	start := time.Now()
	ix := j.buildIndex(s, j.BuildOrder(s, t), opts, nil)
	return ix.probe(t, opts, time.Since(start))
}

// SelfJoin joins a collection with itself, returning each unordered pair
// (i < j) at most once and never pairing a record with itself. Unlike
// Join(s, s), candidate generation never materialises mirrored or diagonal
// pairs, and Stats reflects the deduplicated work.
func (j *Joiner) SelfJoin(s []strutil.Record, opts Options) ([]Pair, Stats) {
	return j.BuildIndex(s, opts).SelfJoin()
}

// signatures computes signatures for every record in parallel.
func (j *Joiner) signatures(recs []strutil.Record, sel *pebble.Selector, method pebble.Method, tau int) []pebble.Signature {
	out := make([]pebble.Signature, len(recs))
	parallelFor(len(recs), 0, func(i int) {
		out[i] = sel.Signature(recs[i].Tokens, method, tau)
	})
	return out
}

// appendSignatureIDs appends one interned ID per signature pebble
// (duplicates retained), matching the posting-list semantics the overlap
// count relies on.
func appendSignatureIDs(ids []uint32, sig pebble.Signature) []uint32 {
	for i := range sig.Pebbles {
		ids = append(ids, sig.Pebbles[i].ID)
	}
	return ids
}

// sigCount returns the number of records with stored signatures, whichever
// representation (built or restored) the index holds.
func (ix *Index) sigCount() int {
	if ix.sigs != nil {
		return len(ix.sigs)
	}
	return len(ix.sigIDs)
}

// sigLenAt returns record i's signature length in pebbles.
func (ix *Index) sigLenAt(i int) int {
	if ix.sigs != nil {
		return ix.sigs[i].Len()
	}
	return len(ix.sigIDs[i])
}

// appendSigIDsAt appends record i's signature pebble IDs to ids.
func (ix *Index) appendSigIDsAt(ids []uint32, i int) []uint32 {
	if ix.sigs != nil {
		return appendSignatureIDs(ids, ix.sigs[i])
	}
	return append(ids, ix.sigIDs[i]...)
}

// pairKey identifies one candidate pair: an indexed record and a probe
// record.
type pairKey struct{ s, t int }

// verify runs the thresholded prepared-record verification of every
// candidate pair through the streaming stage and collects the pairs reaching
// θ, in completion order (callers sort). It is the batch convenience over
// streamVerify, kept for the verification benchmark; nil when empty, matching
// BruteForce, so oracle comparisons can use reflect.DeepEqual.
func (j *Joiner) verify(s, t []strutil.Record, prepS, prepT []*core.PreparedRecord, candidates []pairKey, calc *core.Calculator, opts Options) []Pair {
	var out []Pair
	workers := opts.workers()
	_, _ = collectStream(context.Background(), workers, func(ictx context.Context, ch chan<- []Pair) error {
		return streamVerify(ictx, s, t, prepS, prepT, candidates, calc, opts.Theta, workers, opts.NoVerifyMemo, ch, nil)
	}, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// prepareRecords runs Calculator.Prepare for every record in parallel; the
// result is the verification half of an index or probe collection.
func prepareRecords(recs []strutil.Record, calc *core.Calculator) []*core.PreparedRecord {
	out := make([]*core.PreparedRecord, len(recs))
	parallelFor(len(recs), 0, func(i int) {
		out[i] = calc.Prepare(recs[i].Tokens)
	})
	return out
}

// FilterProfile holds the τ-independent state of the filtering stage for
// two collections: the shared interned order and every record's prepared
// (generated, interned, sorted) pebble list. Stats re-derives signatures
// and candidate counts for any τ without regenerating or re-sorting
// pebbles — the Section 4 estimator calls it for every τ in its universe on
// each Bernoulli sample — and VerifyStats additionally verifies the
// surviving candidates through the same prepared-record engine the join
// uses, preparing each sample record once across every τ. A FilterProfile
// is not safe for concurrent use: signature re-selection mutates shared
// per-record accumulation scratch (and VerifyStats its verdict memo), so
// sweep τ values sequentially.
type FilterProfile struct {
	joiner     *Joiner
	calc       *core.Calculator
	sel        *pebble.Selector
	order      *pebble.Order
	opts       Options
	method     pebble.Method
	theta      float64
	workers    int
	universe   int
	recS, recT []strutil.Record
	preS, preT []pebble.Presig
	scratch    sync.Pool // *probeScratch, reused across the τ sweep

	prepOnce     sync.Once
	prepS, prepT []*core.PreparedRecord
	// verdicts memoises per-pair verification outcomes across the τ sweep:
	// the verdict depends only on the pair and θ, and candidate sets for
	// different τ overlap heavily.
	verdicts map[pairKey]bool
}

// NewFilterProfile prepares both collections under a shared global order.
func (j *Joiner) NewFilterProfile(s, t []strutil.Record, opts Options) *FilterProfile {
	order := j.BuildOrder(s, t)
	sel := pebble.NewSelector(j.gen, order, opts.Theta)
	calc := opts.Calculator
	if calc == nil {
		calc = j.calc
	}
	return &FilterProfile{
		joiner:   j,
		calc:     calc,
		sel:      sel,
		order:    order,
		opts:     opts,
		method:   opts.Method,
		theta:    opts.Theta,
		workers:  opts.workers(),
		universe: order.NumKeys(),
		recS:     s,
		recT:     t,
		preS:     j.prepareAll(s, sel),
		preT:     j.prepareAll(t, sel),
	}
}

// prepareAll runs Selector.Prepare for every record in parallel.
func (j *Joiner) prepareAll(recs []strutil.Record, sel *pebble.Selector) []pebble.Presig {
	out := make([]pebble.Presig, len(recs))
	parallelFor(len(recs), 0, func(i int) {
		out[i] = sel.Prepare(recs[i].Tokens)
	})
	return out
}

// Stats runs the filtering stage (Lines 1–8 of Algorithm 6) for one τ and
// returns the number of processed posting pairs (T_τ) and candidates (V_τ).
func (fp *FilterProfile) Stats(tau int) (processed int64, candidates int) {
	cands, p := fp.filter(tau)
	return p, len(cands)
}

// VerifyStats is Stats plus verification: it runs the filtering stage for
// one τ and verifies every candidate through the prepared thresholded
// engine, returning the number of results (R_τ) alongside T_τ and V_τ. The
// prepared records of both collections are built on first use and shared by
// every subsequent τ.
func (fp *FilterProfile) VerifyStats(tau int) (processed int64, candidates, results int) {
	cands, processed := fp.filter(tau)
	if len(cands) == 0 {
		return processed, 0, 0
	}
	fp.prepOnce.Do(func() {
		fp.prepS = prepareRecords(fp.recS, fp.calc)
		fp.prepT = prepareRecords(fp.recT, fp.calc)
	})
	// A pair's verdict is τ-independent, and the candidate sets of the τ
	// sweep overlap heavily, so only pairs never seen before are verified.
	if fp.verdicts == nil {
		fp.verdicts = make(map[pairKey]bool)
	}
	var todo []pairKey
	for _, c := range cands {
		if _, ok := fp.verdicts[c]; !ok {
			todo = append(todo, c)
		}
	}
	if len(todo) > 0 {
		scratches := make([]*core.Scratch, fp.workers)
		keep := make([]bool, len(todo))
		parallelForWorkers(len(todo), fp.workers, func(w, i int) {
			sc := scratches[w]
			if sc == nil {
				sc = core.NewScratch()
				scratches[w] = sc
			}
			c := todo[i]
			keep[i] = fp.calc.SimilarityAtLeastPrepared(fp.prepS[c.s], fp.prepT[c.t], fp.theta, sc)
		})
		for i, c := range todo {
			fp.verdicts[c] = keep[i]
		}
	}
	for _, c := range cands {
		if fp.verdicts[c] {
			results++
		}
	}
	return processed, len(cands), results
}

// filter runs signature selection and count filtering for one τ, returning
// the candidate pairs and the processed posting count.
func (fp *FilterProfile) filter(tau int) ([]pairKey, int64) {
	if fp.method == pebble.UFilter || tau < 1 {
		tau = 1
	}
	sigS := fp.selectAll(fp.preS, tau)
	sigT := fp.selectAll(fp.preT, tau)
	inv := invindex.New(fp.universe)
	var ids []uint32
	for i := range sigS {
		ids = appendSignatureIDs(ids[:0], sigS[i])
		inv.Add(i, ids)
	}
	hybridizeIndex(inv, fp.order, fp.opts)
	cands, tally, _ := countFilterCandidates(context.Background(), inv, len(fp.preS), sigT, tau, false, 0, &fp.scratch)
	return cands, tally.postings
}

// selectAll derives the τ-specific signatures from the prepared pebble
// lists in parallel.
func (fp *FilterProfile) selectAll(pre []pebble.Presig, tau int) []pebble.Signature {
	out := make([]pebble.Signature, len(pre))
	parallelFor(len(pre), 0, func(i int) {
		out[i] = fp.sel.Select(pre[i], fp.method, tau)
	})
	return out
}

// FilterStats runs only the signature and filtering stages of the join and
// returns T_τ and V_τ. One-shot convenience over NewFilterProfile; callers
// sweeping several τ values should build the profile once and call Stats
// per τ.
func (j *Joiner) FilterStats(s, t []strutil.Record, opts Options) (processed int64, candidates int) {
	return j.NewFilterProfile(s, t, opts).Stats(opts.tau())
}

// BruteForce computes the join by verifying every pair through the prepared
// thresholded engine (each side prepared once); it is the oracle the
// integration tests compare the filtered joins against and the degenerate
// baseline of the scalability experiments.
func (j *Joiner) BruteForce(s, t []strutil.Record, theta float64, calc *core.Calculator) []Pair {
	out, _ := j.BruteForceCtx(context.Background(), s, t, theta, calc)
	return out
}

// BruteForceCtx is BruteForce with cooperative cancellation: verification
// workers stop between pairs once ctx is done and the partial result is
// discarded (a truncated oracle would silently weaken every comparison made
// against it).
func (j *Joiner) BruteForceCtx(ctx context.Context, s, t []strutil.Record, theta float64, calc *core.Calculator) ([]Pair, error) {
	if calc == nil {
		calc = j.calc
	}
	prepS := prepareRecords(s, calc)
	prepT := prepareRecords(t, calc)
	type cell struct {
		pair Pair
		ok   bool
	}
	cells := make([]cell, len(s)*len(t))
	workers := runtime.GOMAXPROCS(0)
	scratches := make([]*core.Scratch, workers)
	err := parallelForWorkersCtx(ctx, len(s)*len(t), workers, func(w, k int) {
		i, l := k/len(t), k%len(t)
		sc := scratches[w]
		if sc == nil {
			sc = core.NewScratch()
			scratches[w] = sc
		}
		if v, ok := calc.VerifyPrepared(prepS[i], prepT[l], theta, sc); ok {
			cells[k] = cell{pair: Pair{S: s[i].ID, T: t[l].ID, Similarity: v}, ok: true}
		}
	})
	if err != nil {
		return nil, err
	}
	var out []Pair
	for _, c := range cells {
		if c.ok {
			out = append(out, c.pair)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].S != out[b].S {
			return out[a].S < out[b].S
		}
		return out[a].T < out[b].T
	})
	return out, nil
}

// parallelFor runs fn(i) for i in [0, n) across the given number of workers
// (GOMAXPROCS when workers ≤ 0). It runs inline when n is small.
func parallelFor(n, workers int, fn func(int)) {
	parallelForWorkers(n, workers, func(_, i int) { fn(i) })
}

// parallelForWorkers is parallelFor with the worker index exposed to fn, so
// callers can keep per-worker scratch without synchronisation: each worker
// index in [0, workers) is used by exactly one goroutine (index 0 when the
// loop runs inline).
func parallelForWorkers(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n <= 1 || workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		goPipeline(func() {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		})
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
