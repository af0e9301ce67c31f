// Package aujoin is the public API of the unified string similarity join
// framework, a from-scratch Go implementation of
//
//	Pengfei Xu and Jiaheng Lu: "Towards a Unified Framework for String
//	Similarity Joins", PVLDB 12(11), 2019.
//
// The framework measures how similar two strings are by combining three
// kinds of similarity at once — syntactic (q-gram Jaccard), synonym-rule
// based, and taxonomy (IS-A hierarchy) based — and joins large string
// collections under that unified measure with pebble-signature filtering
// (U-Filter and the adaptive AU-Filters) plus sampling-based selection of
// the overlap constraint τ.
//
// # Quick start
//
//	j, err := aujoin.NewStrict(
//		aujoin.WithSynonym("coffee shop", "cafe", 1.0),
//		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "espresso"),
//		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "latte"),
//	)
//	if err != nil { ... }
//	sim := j.Similarity("coffee shop latte Helsingki", "espresso cafe Helsinki")
//	matches, _ := j.Join(left, right, aujoin.JoinOptions{Theta: 0.8, AutoTau: true})
//
// NewStrict is the recommended constructor; New is the panic-on-error
// convenience wrapper for option lists known to be valid (tests, examples,
// hard-coded configuration).
//
// # Streaming and cancellation
//
// Every batch entry point has a streaming sibling that accepts a
// context.Context and yields matches one at a time as the parallel verify
// stage confirms them (Go 1.23 range-over-func), so peak match buffering is
// bounded by the worker count rather than the result size and a deadline or
// a disconnected client cancels the join mid-flight:
//
//	for m, err := range j.JoinSeq(ctx, left, right, opts) {
//		if err != nil { ... }   // ctx cancelled or deadline exceeded
//		consume(m)              // breaking out stops the pipeline
//	}
//
// QueryCtx and QueryTopKCtx serve single strings under the same contract and
// take per-request QueryOptions (threshold, k, worker-count overrides) that
// the batch API fixes at build time.
//
// # Build once, probe many
//
// Every pebble is interned into a dense integer ID ordered by global
// frequency, and the whole filtering pipeline (signatures, inverted index,
// candidate counting) runs on those IDs. Joiner.Index materialises that
// state once so that repeated joins and query-serving workloads skip it:
//
//	ix := j.Index(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2})
//	matches, _ := ix.Probe(batch)          // join a batch against the catalog
//	hits := ix.Query("espresso cafe")      // serve a single lookup
//
// Join and SelfJoin are one-shot compositions of the same stages.
//
// # Dynamic serving
//
// An Index is mutable and concurrently servable: Insert and Remove change
// the catalog online, while Snapshot hands out immutable views that serve
// Query, QueryTopK and Probe lock-free and unaffected by concurrent
// writes. New signature keys land in an append-only dynamic region of the
// global pebble order, and the index re-freezes the order (full rebuild)
// once the appended mass crosses a threshold:
//
//	ids := ix.Insert([]string{"espresso bar Helsinki"})
//	view := ix.Snapshot()                  // consistent, lock-free reads
//	top := view.QueryTopK("espresso", 10)  // ranked serving
//	ix.Remove(ids[0])                      // tombstoned for later snapshots
//
// IndexWith partitions the catalog across shards that mutate in parallel
// and rebuild independently — queries fan out and merge, results stay
// identical to the unsharded index:
//
//	ix := j.IndexWith(catalog, opts, aujoin.IndexOptions{Shards: 0}) // GOMAXPROCS shards
//
// cmd/aujoind wraps this in an HTTP server; `benchrun -exp serve` load
// tests it.
//
// See the examples/ directory for complete runnable programs and
// cmd/benchrun for the harness that regenerates the paper's tables and
// figures.
package aujoin

import (
	"context"
	"fmt"
	"io"
	"iter"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/estimator"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// Filter selects the signature-selection algorithm used by Join.
type Filter int

const (
	// UFilter is the baseline prefix filter with a single-overlap guarantee
	// (Algorithm 2/3 of the paper).
	UFilter Filter = iota
	// AUFilterHeuristic is the adaptive filter with the heuristic slack
	// bound (Algorithm 4).
	AUFilterHeuristic
	// AUFilterDP is the adaptive filter with the dynamic-programming slack
	// bound (Algorithm 5); it produces the shortest signatures and is the
	// recommended default.
	AUFilterDP
)

// String returns the paper's name for the filter.
func (f Filter) String() string { return f.method().String() }

func (f Filter) method() pebble.Method {
	switch f {
	case UFilter:
		return pebble.UFilter
	case AUFilterHeuristic:
		return pebble.AUHeuristic
	default:
		return pebble.AUDP
	}
}

// Match is one join result: indices into the two input collections and the
// unified similarity of the pair.
type Match struct {
	S, T       int
	Similarity float64
}

// Stats summarises one join execution.
type Stats struct {
	// Candidates is the number of pairs that survived filtering.
	Candidates int
	// ShardCandidates breaks Candidates down per shard when the probe ran
	// against an Index: entry i counts the candidates shard i contributed
	// (one entry when IndexOptions.Shards is 1), and the entries always sum
	// to Candidates. It is nil for one-shot joins.
	ShardCandidates []int
	// Results is the number of matches returned.
	Results int
	// FilterPostings is the number of posting entries (record IDs, whether
	// walked in a sorted list or popcounted out of a packed bitmap block)
	// the candidate phase processed — the T_τ cost measure of the paper.
	FilterPostings int64
	// BitsetTokens and SliceTokens split the signature tokens the candidate
	// phase looked up by posting-list representation: packed bitmap form
	// versus sorted slice form. Their sum is the number of distinct indexed
	// tokens across all probe signatures.
	BitsetTokens int64
	SliceTokens  int64
	// SuggestedTau is the overlap constraint used: the auto-suggested τ when
	// AutoTau was enabled, the adaptive planner's per-batch choice on
	// planned Index probes, and the fixed build-time τ otherwise.
	SuggestedTau int
	// VerifiedCandidates counts the candidates whose full similarity was
	// actually computed; PrunedByBound the candidates dismissed by a sound
	// O(1) upper bound before any segment work; MemoHits the segment-pair
	// similarity evaluations answered from the per-query memo instead of
	// being recomputed. VerifiedCandidates + PrunedByBound ≤ Candidates.
	VerifiedCandidates int64
	PrunedByBound      int64
	MemoHits           int64
	// SuggestionTime, FilterTime and VerifyTime break the total down. Each
	// is the wall-clock duration of its stage — elapsed time, NOT CPU time
	// summed over verification workers or shards — so the three add up to
	// the end-to-end latency the caller observed.
	SuggestionTime time.Duration
	FilterTime     time.Duration
	VerifyTime     time.Duration
}

// Total returns the total join time: the sum of the per-stage wall-clock
// durations, i.e. the end-to-end latency of the call (not CPU time).
func (s Stats) Total() time.Duration { return s.SuggestionTime + s.FilterTime + s.VerifyTime }

// JoinOptions configures Join and SelfJoin.
type JoinOptions struct {
	// Theta is the unified-similarity threshold in [0, 1].
	Theta float64
	// Tau is the overlap constraint (≥ 1); ignored when AutoTau is set.
	Tau int
	// AutoTau runs the sampling-based estimator of Section 4 to pick τ.
	AutoTau bool
	// Filter selects the signature algorithm; the default is AUFilterDP.
	Filter Filter
	// Workers bounds verification parallelism (0 = all CPUs).
	Workers int
	// Seed seeds the sampling-based τ estimator (AutoTau and SuggestTau);
	// 0 means the reproducible default seed 1, so runs are deterministic
	// unless a different seed is requested explicitly.
	Seed int64
}

// estimatorSeed maps the zero value to the reproducible default.
func (o JoinOptions) estimatorSeed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// Option configures a Joiner at construction time.
type Option func(*builder) error

type builder struct {
	rules    *synonym.RuleSet
	tax      *taxonomy.Tree
	measures sim.MeasureSet
	q        int
	t        float64
	err      error
}

// WithSynonym adds one synonym (or abbreviation) rule lhs → rhs with the
// given closeness in (0, 1].
func WithSynonym(lhs, rhs string, closeness float64) Option {
	return func(b *builder) error {
		_, err := b.rules.Add(lhs, rhs, closeness)
		return err
	}
}

// WithSynonymsFrom loads tab-separated "lhs<TAB>rhs[<TAB>closeness]" rules.
func WithSynonymsFrom(r io.Reader) Option {
	return func(b *builder) error {
		rs, err := synonym.Read(r)
		if err != nil {
			return err
		}
		for _, rule := range rs.Rules() {
			if _, err := b.rules.Add(rule.LHSText(), rule.RHSText(), rule.C); err != nil {
				return err
			}
		}
		return nil
	}
}

// WithTaxonomyPath adds a root-to-leaf path of IS-A entities, creating any
// missing intermediate nodes. The first element must always be the same
// root name.
func WithTaxonomyPath(path ...string) Option {
	return func(b *builder) error {
		if len(path) == 0 {
			return fmt.Errorf("aujoin: empty taxonomy path")
		}
		if b.tax == nil {
			b.tax = taxonomy.NewTree(path[0])
		} else if _, ok := b.tax.Lookup(path[0]); !ok {
			return fmt.Errorf("aujoin: taxonomy path must start at the existing root %q", b.tax.Name(b.tax.Root()))
		}
		parent := b.tax.Root()
		for _, name := range path[1:] {
			id, err := b.tax.AddChild(parent, name)
			if err != nil {
				return err
			}
			parent = id
		}
		return nil
	}
}

// WithTaxonomyFrom loads a taxonomy in the "node<TAB>parent" format
// produced by the datagen tool.
func WithTaxonomyFrom(r io.Reader) Option {
	return func(b *builder) error {
		t, err := taxonomy.Read(r)
		if err != nil {
			return err
		}
		b.tax = t
		return nil
	}
}

// WithMeasures restricts the unified similarity to a combination of the
// base measures, given in the paper's letter notation ("J", "TS", "TJS",
// …). The default is all three.
func WithMeasures(combo string) Option {
	return func(b *builder) error {
		b.measures = sim.ParseMeasureSet(combo)
		return nil
	}
}

// WithGramLength sets the q-gram length of the Jaccard measure (default 2).
func WithGramLength(q int) Option {
	return func(b *builder) error {
		if q < 1 {
			return fmt.Errorf("aujoin: gram length %d < 1", q)
		}
		b.q = q
		return nil
	}
}

// WithApproximationT sets the t parameter of Algorithm 1 (larger t = finer
// local improvements, more work; default 50).
func WithApproximationT(t float64) Option {
	return func(b *builder) error {
		if t <= 1 {
			return fmt.Errorf("aujoin: t must be > 1")
		}
		b.t = t
		return nil
	}
}

// Joiner computes unified similarities and joins string collections. It is
// safe for concurrent use once constructed.
type Joiner struct {
	ctx    *sim.Context
	calc   *core.Calculator
	joiner *join.Joiner
}

// New constructs a Joiner from the given options, panicking on invalid
// ones. It is the convenience wrapper for option lists known to be valid
// (tests, examples, hard-coded configuration); code handling user-supplied
// configuration should call NewStrict, the documented default constructor,
// and handle the error.
func New(opts ...Option) *Joiner {
	j, err := NewStrict(opts...)
	if err != nil {
		panic(fmt.Sprintf("aujoin.New: %v", err))
	}
	return j
}

// NewStrict constructs a Joiner from the given options, reporting invalid
// options as an error. It is the recommended constructor.
func NewStrict(opts ...Option) (*Joiner, error) {
	b := &builder{rules: synonym.NewRuleSet(), measures: sim.SetAll, q: sim.DefaultQ, t: core.DefaultT}
	for _, opt := range opts {
		if err := opt(b); err != nil {
			return nil, err
		}
	}
	ctx := &sim.Context{Q: b.q, Rules: b.rules, Tax: b.tax, Measures: b.measures}
	if b.tax != nil {
		b.tax.Finalize()
	}
	calc := core.NewCalculator(ctx)
	calc.T = b.t
	return &Joiner{ctx: ctx, calc: calc, joiner: join.NewJoiner(ctx)}, nil
}

// Similarity computes the unified similarity of two strings with the
// polynomial-time approximation (Algorithm 1).
func (j *Joiner) Similarity(s, t string) float64 { return j.calc.Similarity(s, t) }

// SimilarityExact computes the exact unified similarity by enumerating all
// well-defined partitions. The boolean reports whether the enumeration
// completed within its budget; when false the value is a lower bound.
func (j *Joiner) SimilarityExact(s, t string) (float64, bool) {
	res := j.calc.SimilarityExact(s, t)
	return res.Similarity, res.Complete
}

// Join finds all pairs (i from s, j from t) whose unified similarity
// reaches opts.Theta.
func (j *Joiner) Join(s, t []string, opts JoinOptions) ([]Match, Stats) {
	recsS := strutil.NewCollection(s)
	recsT := strutil.NewCollection(t)
	return j.joinRecords(recsS, recsT, opts, false)
}

// SelfJoin finds all unordered pairs within one collection.
func (j *Joiner) SelfJoin(s []string, opts JoinOptions) ([]Match, Stats) {
	recs := strutil.NewCollection(s)
	return j.joinRecords(recs, recs, opts, true)
}

// JoinSeq is the streaming form of Join: it returns a Go 1.23 range-over-func
// sequence that yields each match as the parallel verify stage confirms it,
// in completion order (collect and sort by (S, T) to reproduce Join's order).
// All work — signature generation, filtering, verification — runs inside the
// consumer's range loop, and peak match buffering is bounded by the worker
// count, not the result size.
//
// Cancellation is cooperative and prompt: when ctx is cancelled or its
// deadline passes, the pipeline stops between candidate pairs and the
// sequence yields one final non-nil error (with AutoTau, a cancellation
// during the sampling stage surfaces the same way). Breaking out of the loop
// early stops the pipeline too, and is not an error. In both cases every
// internal goroutine is released before the range statement returns.
func (j *Joiner) JoinSeq(ctx context.Context, s, t []string, opts JoinOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		recsS := strutil.NewCollection(s)
		recsT := strutil.NewCollection(t)
		jopts, err := j.resolveSeqOptions(ctx, recsS, recsT, opts)
		if err != nil {
			yield(Match{}, err)
			return
		}
		forwardPairs(j.joiner.JoinSeq(ctx, recsS, recsT, jopts), yield)
	}
}

// SelfJoinSeq is the streaming form of SelfJoin, under the same contract as
// JoinSeq: each unordered pair (i < j) is yielded at most once, in
// completion order.
func (j *Joiner) SelfJoinSeq(ctx context.Context, s []string, opts JoinOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		recs := strutil.NewCollection(s)
		jopts, err := j.resolveSeqOptions(ctx, recs, recs, opts)
		if err != nil {
			yield(Match{}, err)
			return
		}
		forwardPairs(j.joiner.SelfJoinSeq(ctx, recs, jopts), yield)
	}
}

// resolveSeqOptions maps JoinOptions onto the internal join options, running
// the τ estimator under ctx when AutoTau is set so a deadline also bounds
// the sampling stage.
func (j *Joiner) resolveSeqOptions(ctx context.Context, recsS, recsT []strutil.Record, opts JoinOptions) (join.Options, error) {
	tau := opts.Tau
	if tau < 1 {
		tau = 1
	}
	if opts.AutoTau {
		rec, err := estimator.SuggestCtx(ctx, j.joiner, recsS, recsT,
			join.Options{Theta: opts.Theta, Method: opts.Filter.method()},
			estimator.Config{Seed: opts.estimatorSeed()})
		if err != nil {
			return join.Options{}, err
		}
		tau = rec.BestTau
	}
	return join.Options{
		Theta:   opts.Theta,
		Tau:     tau,
		Method:  opts.Filter.method(),
		Workers: opts.Workers,
	}, nil
}

// forwardPairs adapts an internal pair stream onto the public Match type,
// preserving the streaming contract (errors forwarded once, consumer breaks
// propagated back into the pipeline).
func forwardPairs(seq iter.Seq2[join.Pair, error], yield func(Match, error) bool) {
	for p, err := range seq {
		if err != nil {
			yield(Match{}, err)
			return
		}
		if !yield(Match{S: p.S, T: p.T, Similarity: p.Similarity}, nil) {
			return
		}
	}
}

// PlanMode selects how an Index picks the probe-side filter configuration
// (signature-selection method and overlap constraint τ) for a request.
type PlanMode int

const (
	// PlanAuto (the default) plans each request adaptively: a per-query
	// cost model over the query's token statistics and the index's live
	// document frequencies picks the cheapest provably-sound configuration,
	// and an online feedback loop corrects the model from observed
	// executions. Results are bit-identical to PlanFixed — only the filter's
	// over-admission rate (and therefore latency) changes.
	PlanAuto PlanMode = iota
	// PlanFixed pins the build-time Filter and Tau on every request —
	// the pre-planner behaviour.
	PlanFixed
)

// internal maps the public plan mode onto the internal one.
func (m PlanMode) internal() join.PlanMode {
	if m == PlanFixed {
		return join.PlanFixed
	}
	return join.PlanAuto
}

// QueryOptions carries per-request overrides for QueryCtx and QueryTopKCtx —
// parameters the batch Query/QueryTopK freeze at index build time. The zero
// value changes nothing.
type QueryOptions struct {
	// MinSimilarity overrides the similarity threshold for this request;
	// 0 keeps the build-time Theta. Values above the build-time Theta are
	// exact (the filter over-admits and verification tightens). Values below
	// it are best-effort: the candidate set is still bounded by the
	// build-time filter, so matches between the override and the build-time
	// Theta are returned only when they survive that filter.
	MinSimilarity float64
	// K bounds the number of matches QueryTopKCtx returns; it is ignored by
	// QueryCtx, which returns every match. K ≤ 0 returns an empty result.
	K int
	// Workers bounds this request's verification parallelism; 0 or 1
	// verifies sequentially (on a sharded index, the per-shard fan-out still
	// runs concurrently).
	Workers int
	// Plan overrides the planning mode for this request: PlanAuto (the
	// default) picks the cheapest sound filter configuration per query,
	// PlanFixed pins the build-time Filter and Tau. On an index built with
	// IndexOptions.Plan == PlanFixed every request runs fixed regardless.
	Plan PlanMode
}

// internal maps the public options onto the internal per-request options.
func (o QueryOptions) internal() join.QueryOpts {
	return join.QueryOpts{Theta: o.MinSimilarity, Workers: o.Workers, Plan: o.Plan.internal()}
}

// Index is a dynamic, concurrently servable join target over one
// collection: the interned pebble order, the collection's signatures and
// prepared verification records, and the ID-indexed inverted index. Built
// once, it serves any number of concurrent Probe/Query/QueryTopK calls
// while Insert and Remove mutate the catalog: writers publish immutable
// snapshots (Snapshot), so reads never block and always observe a
// consistent catalog state. Theta, Tau and Filter are fixed at build time.
//
// An Index may be partitioned (IndexOptions.Shards): records are hashed by
// stable ID across independent shards that share one global pebble order
// and one prepared-record cache, so mutations on different shards proceed
// in parallel, a rebuild pauses writers of one shard only, and queries fan
// out across all shards with results identical to the unsharded index.
type Index struct {
	inner *join.ShardedIndex
	tau   int
}

// IndexOptions configures the construction of an Index beyond the join
// parameters.
type IndexOptions struct {
	// Shards is the number of partitions the catalog is hashed across.
	// 0 selects GOMAXPROCS; 1 builds the classic single-partition index.
	// More shards mean more parallel mutation throughput and shorter
	// per-rebuild writer stalls, at the cost of one inverted index and
	// posting-array header block per shard.
	Shards int
	// Plan sets the index-wide planning default. PlanAuto (zero value)
	// installs the adaptive per-query planner; PlanFixed disables it
	// entirely, pinning the build-time Filter and Tau on every request
	// (individual requests cannot re-enable it).
	Plan PlanMode
}

// QueryMatch is one result of a single-string Query: the stable ID of the
// matched record and its unified similarity to the query. For records
// present since the build, the ID equals the record's position in the
// original collection; records added later get fresh IDs from Insert.
type QueryMatch struct {
	Record     int     `json:"record"`
	Similarity float64 `json:"similarity"`
}

// Index builds a probe-ready dynamic index over the collection. Theta, Tau
// and Filter are fixed at build time (AutoTau is ignored — suggesting τ
// needs a probe side; use SuggestTau and rebuild to re-tune). Each record's
// stable ID is its position in the input collection. The index is
// single-partition; IndexWith builds a sharded one.
func (j *Joiner) Index(records []string, opts JoinOptions) *Index {
	return j.IndexWith(records, opts, IndexOptions{Shards: 1})
}

// IndexWith is Index with explicit construction options; IndexOptions
// {Shards: 1} reproduces Index exactly, and Shards = 0 partitions across
// GOMAXPROCS shards.
func (j *Joiner) IndexWith(records []string, opts JoinOptions, iopts IndexOptions) *Index {
	tau := opts.Tau
	if tau < 1 {
		tau = 1
	}
	jopts := join.Options{
		Theta:   opts.Theta,
		Tau:     tau,
		Method:  opts.Filter.method(),
		Workers: opts.Workers,
		Plan:    iopts.Plan.internal(),
	}
	recs := strutil.NewCollection(records)
	return &Index{inner: j.joiner.BuildShardedIndex(recs, iopts.Shards, jopts, join.DynamicOptions{}), tau: tau}
}

// Insert adds a batch of records to the indexed catalog and returns their
// stable IDs. New signature keys are interned into an append-only dynamic
// region of the pebble order and the records become immediately visible to
// subsequent snapshots; once the appended mass (or tombstone mass, or
// segment-chain length) of a shard crosses an internal threshold that shard
// rebuilds, pausing only its own writers. On a sharded index the batch is
// grouped by destination shard and inserted in parallel, taking each shard's
// writer lock once. Insert is safe to call concurrently with reads and
// other writers.
func (ix *Index) Insert(records []string) []int { return ix.inner.InsertBatch(records) }

// Remove deletes the record with the given stable ID from the catalog,
// reporting whether it was present. The record is tombstoned — skipped by
// all subsequent snapshots — and physically dropped at its shard's next
// rebuild.
func (ix *Index) Remove(id int) bool { return ix.inner.Remove(id) }

// RemoveBatch deletes a batch of records by stable ID, reporting per ID
// whether it was present and live. IDs are grouped by shard and removed in
// parallel, each shard taking its writer lock — and publishing a snapshot —
// once for the whole batch.
func (ix *Index) RemoveBatch(ids []int) []bool { return ix.inner.RemoveBatch(ids) }

// Snapshot returns an immutable view of the catalog as of now. All View
// methods are lock-free and safe for unbounded concurrency; later Insert
// and Remove calls do not affect it. Probe/Query/QueryTopK on the Index are
// shorthands for the same calls on a fresh snapshot.
func (ix *Index) Snapshot() *View { return &View{inner: ix.inner.Snapshot(), tau: ix.tau} }

// Stats summarises the current state of the dynamic index.
func (ix *Index) Stats() IndexStats { return statsFromInternal(ix.inner.Stats()) }

// Probe joins a collection of strings against the current snapshot.
func (ix *Index) Probe(records []string) ([]Match, Stats) {
	return ix.Snapshot().Probe(records)
}

// ProbeSeq is the streaming form of Probe against the current snapshot,
// under the same contract as Joiner.JoinSeq: matches are yielded in
// completion order, breaking out stops the pipeline, and a ctx cancellation
// surfaces as one final error.
func (ix *Index) ProbeSeq(ctx context.Context, records []string) iter.Seq2[Match, error] {
	return ix.Snapshot().ProbeSeq(ctx, records)
}

// Query runs the filter-and-verify pipeline for a single string against
// the current snapshot and returns the matching records in ascending
// stable-ID order.
func (ix *Index) Query(q string) []QueryMatch { return ix.Snapshot().Query(q) }

// QueryCtx is Query with cooperative cancellation and per-request options;
// see View.QueryCtx.
func (ix *Index) QueryCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	return ix.Snapshot().QueryCtx(ctx, q, opts)
}

// QueryTopK returns the k best matches for q in the current snapshot,
// ordered by descending similarity.
func (ix *Index) QueryTopK(q string, k int) []QueryMatch {
	return ix.Snapshot().QueryTopK(q, k)
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and per-request
// options; see View.QueryTopKCtx.
func (ix *Index) QueryTopKCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	return ix.Snapshot().QueryTopKCtx(ctx, q, opts)
}

// IndexStats describes one snapshot of a dynamic Index: catalog size and
// tombstone counts, the delta-segment chain, the shard count, the
// interned-key split between the frozen order prefix and the dynamic
// region, the rebuild history, and the prepared-record cache counters.
type IndexStats struct {
	// Records is the catalog length including tombstones; Live and Dead
	// split it.
	Records int `json:"records"`
	Live    int `json:"live"`
	Dead    int `json:"dead"`
	// Segments is the length of the delta-segment chain (one per Insert
	// batch since the last rebuild), summed over shards.
	Segments int `json:"segments"`
	// Shards is the number of index partitions.
	Shards int `json:"shards"`
	// FrozenKeys and DynamicKeys count the interned pebble keys in the
	// frozen order prefix and the append-only dynamic region.
	FrozenKeys  int `json:"frozen_keys"`
	DynamicKeys int `json:"dynamic_keys"`
	// Rebuilds counts shard compactions across all shards plus order
	// re-freezes (each rebuilds every shard once); Inserts the records
	// appended over the index lifetime.
	Rebuilds int `json:"rebuilds"`
	Inserts  int `json:"inserts"`
	// DenseKeys and SparseKeys split the non-empty posting lists of the
	// base inverted indexes by representation: packed bitmap form (lists
	// past the hybrid density cutoff) versus sorted slice form, summed over
	// shards.
	DenseKeys  int `json:"dense_keys"`
	SparseKeys int `json:"sparse_keys"`
	// ProbePostings counts posting entries processed by the count filter
	// over every probe served since the index was built;
	// ProbeBitsetTokens and ProbeSliceTokens split the probe signature
	// tokens by the posting-list representation they were served from
	// (packed bitmap versus sorted slice), summed over shards.
	ProbePostings     int64 `json:"probe_postings"`
	ProbeBitsetTokens int64 `json:"probe_bitset_tokens"`
	ProbeSliceTokens  int64 `json:"probe_slice_tokens"`
	// VerifiedCandidates, PrunedByBound and MemoHits are the cumulative
	// verify-phase counters over every query served since the index was
	// built: candidates whose similarity was actually computed, candidates
	// skipped by the sound upper bounds (the O(1) size-ratio bound or the
	// rising top-k floor), and segment-pair similarity evaluations answered
	// from the per-query memo. Summed over shards.
	VerifiedCandidates int64 `json:"verified_candidates"`
	PrunedByBound      int64 `json:"pruned_by_bound"`
	MemoHits           int64 `json:"memo_hits"`
	// CacheHits and CacheMisses are the cumulative counters of the
	// prepared-record cache consulted on Insert (shared across all shards;
	// both zero when the cache is disabled).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Theta and Tau are the join parameters fixed at build time.
	Theta float64 `json:"theta"`
	Tau   int     `json:"tau"`
	// SuggestedTau is the adaptive planner's live τ suggestion: the
	// build-time τ until the first post-rebuild re-anchor, the observed
	// workload's most-chosen τ afterwards (0 when planning is disabled).
	SuggestedTau int `json:"suggested_tau,omitempty"`
	// Plans, PlanFallbacks and PlanReanchors count adaptive planning
	// decisions, fallbacks to the fixed build-time configuration, and
	// feedback re-anchors after rebuilds; PlanDecisions splits Plans by the
	// chosen configuration ("ufilter/t1", "auheur/t2", "audp/t3", ...). All
	// zero when planning is disabled (PlanFixed at build time).
	Plans         int64            `json:"plans,omitempty"`
	PlanFallbacks int64            `json:"plan_fallbacks,omitempty"`
	PlanReanchors int64            `json:"plan_reanchors,omitempty"`
	PlanDecisions map[string]int64 `json:"plan_decisions,omitempty"`
	// BuildTime is the construction time of the current base index, in
	// nanoseconds on the wire.
	BuildTime time.Duration `json:"build_time_ns"`
}

// statsFromInternal converts the internal snapshot statistics (the structs
// are field-identical; the conversion exists so the public API does not
// leak internal types).
func statsFromInternal(st join.DynamicStats) IndexStats { return IndexStats(st) }

// View is an immutable snapshot of an Index. Reads against a View are
// lock-free, safe for unbounded concurrency, and unaffected by concurrent
// Insert/Remove activity on the Index it came from.
type View struct {
	inner *join.ShardedView
	tau   int
}

// Stats returns the snapshot's statistics.
func (v *View) Stats() IndexStats { return statsFromInternal(v.inner.Stats()) }

// Probe joins a collection of strings against the snapshot. Match.S is the
// stable ID of the indexed record, Match.T the position in the probe
// collection.
func (v *View) Probe(records []string) ([]Match, Stats) {
	pairs, jstats := v.inner.Probe(strutil.NewCollection(records))
	return convertPairs(pairs, jstats, v.tau)
}

// ProbeSeq is the streaming form of Probe, under the same contract as
// Joiner.JoinSeq: matches are yielded in completion order as the parallel
// verify stage confirms them, breaking out of the range loop stops the
// pipeline, and a ctx cancellation or deadline surfaces as one final
// non-nil error.
func (v *View) ProbeSeq(ctx context.Context, records []string) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		forwardPairs(v.inner.ProbeSeq(ctx, strutil.NewCollection(records)), yield)
	}
}

// Query runs the filter-and-verify pipeline for a single string and
// returns the matching records in ascending stable-ID order. An empty (or
// all-whitespace) query returns no matches without touching the index.
func (v *View) Query(q string) []QueryMatch {
	hits := v.inner.ProbeRecord(strutil.Tokenize(q))
	return convertHits(hits)
}

// QueryCtx is Query with cooperative cancellation and per-request overrides:
// verification checks ctx between candidates (aborting every shard of a
// sharded index on the first cancellation) and opts may raise the similarity
// threshold or bound the request's verification parallelism for this call
// only. opts.K is ignored — every match is returned; use QueryTopKCtx for a
// bounded result.
func (v *View) QueryCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	hits, err := v.inner.ProbeRecordCtx(ctx, strutil.Tokenize(q), opts.internal())
	if err != nil {
		return nil, err
	}
	return convertHits(hits), nil
}

// QueryTopK returns the k best matches for q, ordered by descending
// similarity (ascending ID on ties). The candidate scan is thresholded at
// the index θ and a bounded heap keeps memory O(k); on a sharded index the
// per-shard top-k streams are merged through one more k-bounded heap. k ≤ 0
// and empty queries return an empty slice without touching the index.
func (v *View) QueryTopK(q string, k int) []QueryMatch {
	if k <= 0 {
		return []QueryMatch{}
	}
	return convertHits(v.inner.QueryTopK(strutil.Tokenize(q), k))
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and per-request
// overrides (the result size comes from opts.K). Verification checks ctx
// between candidates, aborting every shard of a sharded index on the first
// cancellation; opts may also raise the similarity threshold or bound this
// request's verification parallelism.
func (v *View) QueryTopKCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	if opts.K <= 0 {
		return []QueryMatch{}, ctx.Err()
	}
	hits, err := v.inner.QueryTopKCtx(ctx, strutil.Tokenize(q), opts.K, opts.internal())
	if err != nil {
		return nil, err
	}
	return convertHits(hits), nil
}

// convertHits maps internal query results onto the public type.
func convertHits(hits []join.QueryMatch) []QueryMatch {
	out := make([]QueryMatch, len(hits))
	for i, h := range hits {
		out[i] = QueryMatch{Record: h.Record, Similarity: h.Similarity}
	}
	return out
}

// SuggestTau runs the sampling-based estimator of Section 4 and returns the
// overlap constraint with the minimal estimated join cost. opts.Theta sets
// the join threshold, opts.Seed the sampler seed (0 = reproducible default),
// and opts.Filter the signature method whose cost is estimated; the U-Filter
// (for which τ is fixed at 1) is estimated as the heuristic AU-Filter, so
// the zero-value Filter keeps the previous behaviour.
func (j *Joiner) SuggestTau(s, t []string, opts JoinOptions) int {
	tau, _ := j.SuggestTauCtx(context.Background(), s, t, opts)
	return tau
}

// SuggestTauCtx is SuggestTau with deadline awareness: the sampling loop of
// Algorithm 7 checks ctx between rounds and stops early when it is done, so
// a request deadline bounds the suggestion stage too. The returned τ is the
// best recommendation from the rounds that completed; the error is the
// context error when the loop was truncated (callers that can tolerate a
// lower-confidence suggestion may use the τ anyway).
func (j *Joiner) SuggestTauCtx(ctx context.Context, s, t []string, opts JoinOptions) (int, error) {
	recsS := strutil.NewCollection(s)
	recsT := strutil.NewCollection(t)
	method := opts.Filter.method()
	if method == pebble.UFilter {
		method = pebble.AUHeuristic
	}
	rec, err := estimator.SuggestCtx(ctx, j.joiner, recsS, recsT,
		join.Options{Theta: opts.Theta, Method: method},
		estimator.Config{Seed: opts.estimatorSeed()})
	return rec.BestTau, err
}

func (j *Joiner) joinRecords(recsS, recsT []strutil.Record, opts JoinOptions, self bool) ([]Match, Stats) {
	var suggestionTime time.Duration
	start := time.Now()
	// The context is Background, so option resolution cannot fail.
	jopts, _ := j.resolveSeqOptions(context.Background(), recsS, recsT, opts)
	if opts.AutoTau {
		suggestionTime = time.Since(start)
	}
	var pairs []join.Pair
	var jstats join.Stats
	if self {
		pairs, jstats = j.joiner.SelfJoin(recsS, jopts)
	} else {
		pairs, jstats = j.joiner.Join(recsS, recsT, jopts)
	}
	out, stats := convertPairs(pairs, jstats, jopts.Tau)
	stats.SuggestionTime = suggestionTime
	return out, stats
}

// convertPairs maps internal join results onto the public types.
func convertPairs(pairs []join.Pair, jstats join.Stats, tau int) ([]Match, Stats) {
	if jstats.PlanTau > 0 {
		// The adaptive planner picked this batch's τ; report what actually ran.
		tau = jstats.PlanTau
	}
	stats := Stats{
		Candidates:         jstats.Candidates,
		ShardCandidates:    jstats.ShardCandidates,
		Results:            len(pairs),
		FilterPostings:     jstats.ProcessedPairs,
		BitsetTokens:       jstats.BitsetTokens,
		SliceTokens:        jstats.SliceTokens,
		VerifiedCandidates: jstats.VerifiedCandidates,
		PrunedByBound:      jstats.PrunedByBound,
		MemoHits:           jstats.MemoHits,
		SuggestedTau:       tau,
		FilterTime:         jstats.SignatureTime + jstats.FilterTime,
		VerifyTime:         jstats.VerifyTime,
	}
	out := make([]Match, len(pairs))
	for i, p := range pairs {
		out[i] = Match{S: p.S, T: p.T, Similarity: p.Similarity}
	}
	return out, stats
}
