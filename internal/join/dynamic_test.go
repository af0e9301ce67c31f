package join

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// rawCorpus is propertyCorpus as raw strings (InsertBatch takes strings,
// not records).
func rawCorpus(n int, rng *rand.Rand) []string {
	recs := propertyCorpus(n, rng)
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Raw
	}
	return out
}

// oracleOnLive computes the BruteForce join of the probe collection against
// the snapshot's live records, with Pair.S carrying stable IDs — directly
// comparable to ShardedView.Probe output.
func oracleOnLive(j *Joiner, v *ShardedView, probe []strutil.Record, theta float64) []Pair {
	return j.BruteForce(v.Live(), probe, theta, nil)
}

// TestDynamicIndexMutationMatchesBruteForce is the oracle property of the
// dynamic pipeline: after every batch of insert/remove mutations, Probe on
// a fresh snapshot must equal BruteForce over the snapshot's live catalog —
// same pairs (by stable ID), same similarities — across filter methods,
// thresholds and shard counts, including states straddling rebuilds.
func TestDynamicIndexMutationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := propertyContexts()["full"]
	j := NewJoiner(ctx)
	probe := propertyCorpus(25, rng)
	for _, shards := range []int{1, 3} {
		for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
			for _, theta := range []float64{0.7, 0.8, 0.9} {
				testMutationMatchesBruteForce(t, j, rng, probe, shards, Options{Theta: theta, Tau: 2, Method: method})
			}
		}
	}
}

// testMutationMatchesBruteForce runs one cell of the grid.
func testMutationMatchesBruteForce(t *testing.T, j *Joiner, rng *rand.Rand, probe []strutil.Record, shards int, opts Options) {
	method, theta := opts.Method, opts.Theta
	// Aggressive thresholds so the mutation sequence crosses at least one
	// rebuild.
	dx := j.BuildShardedIndex(propertyCorpus(30, rng), shards, opts, DynamicOptions{
		RebuildFraction: 0.15, MaxSegments: 4,
	})
	live := map[int]bool{}
	for id := 0; id < 30; id++ {
		live[id] = true
	}
	check := func(step string) {
		t.Helper()
		v := dx.Snapshot()
		got, stats := v.Probe(probe)
		want := oracleOnLive(j, v, probe, theta)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d %v θ=%v %s: Probe %d pairs, oracle %d pairs", shards, method, theta, step, len(got), len(want))
		}
		if stats.Results != len(got) {
			t.Fatalf("shards=%d %v θ=%v %s: stats.Results = %d, want %d", shards, method, theta, step, stats.Results, len(got))
		}
		if lv := v.Stats().Live; lv != len(live) {
			t.Fatalf("shards=%d %v θ=%v %s: Live = %d, want %d", shards, method, theta, step, lv, len(live))
		}
		// Single-record serving must agree with the batch probe:
		// ProbeRecord(q) is exactly the rows of Probe with T = q.
		for qi := 0; qi < 3; qi++ {
			var want []QueryMatch
			for _, p := range got {
				if p.T == probe[qi].ID {
					want = append(want, QueryMatch{Record: p.S, Similarity: p.Similarity})
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Record < want[b].Record })
			if qr := v.ProbeRecord(probe[qi].Tokens); !reflect.DeepEqual(qr, want) {
				t.Fatalf("shards=%d %v θ=%v %s: ProbeRecord(%q) = %v, want %v",
					shards, method, theta, step, probe[qi].Raw, qr, want)
			}
		}
	}
	check("initial")
	for round := 0; round < 4; round++ {
		ids := dx.InsertBatch(rawCorpus(8, rng))
		for _, id := range ids {
			live[id] = true
		}
		removed := 0
		for id := range live {
			if removed >= 5 {
				break
			}
			if !dx.Remove(id) {
				t.Fatalf("Remove(%d) failed for live id", id)
			}
			if dx.Remove(id) {
				t.Fatalf("Remove(%d) succeeded twice", id)
			}
			delete(live, id)
			removed++
		}
		check("round")
	}
	if dx.Stats().Rebuilds == 0 {
		t.Fatalf("shards=%d %v θ=%v: mutation sequence never triggered a rebuild", shards, method, theta)
	}
}

// TestDynamicIndexQueryTopK pins QueryTopK against ProbeRecord: the top-k
// result must be the k highest-similarity entries of the full thresholded
// result, ordered by descending similarity with ascending-ID ties.
func TestDynamicIndexQueryTopK(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rng := rand.New(rand.NewSource(13))
		j := NewJoiner(propertyContexts()["full"])
		sx := j.BuildShardedIndex(propertyCorpus(40, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		sx.InsertBatch(rawCorpus(15, rng))
		for i := 0; i < 7; i++ {
			sx.Remove(3 * i)
		}
		v := sx.Snapshot()
		queries := rawCorpus(20, rng)
		for _, q := range queries {
			tokens := strutil.Tokenize(q)
			full := v.ProbeRecord(tokens)
			sort.Slice(full, func(a, b int) bool {
				if full[a].Similarity != full[b].Similarity {
					return full[a].Similarity > full[b].Similarity
				}
				return full[a].Record < full[b].Record
			})
			for _, k := range []int{0, 1, 3, len(full), len(full) + 5} {
				got := v.QueryTopK(tokens, k)
				want := full
				if k < len(full) {
					want = full[:k]
				}
				if k == 0 {
					want = nil
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: QueryTopK(%q, %d) = %v, want %v", shards, q, k, got, want)
				}
			}
		}
	}
}

// TestDynamicIndexStableIDs checks that stable record IDs survive rebuilds
// and keep identifying the same raw strings.
func TestDynamicIndexStableIDs(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rng := rand.New(rand.NewSource(17))
		j := NewJoiner(propertyContexts()["synonyms"])
		sx := j.BuildShardedIndex(propertyCorpus(10, rng), shards, Options{Theta: 0.8, Tau: 1}, DynamicOptions{
			RebuildFraction: 0.05, MaxSegments: 1,
		})
		ids := sx.InsertBatch([]string{"coffee shop latte helsinki", "apple cake bakery special"})
		for i := 0; i < 8; i++ {
			sx.Remove(i) // force tombstone-triggered rebuilds
		}
		if sx.Stats().Rebuilds == 0 {
			t.Fatalf("shards=%d: expected at least one rebuild", shards)
		}
		v := sx.Snapshot()
		rec, ok := v.Record(ids[0])
		if !ok || rec.Raw != "coffee shop latte helsinki" {
			t.Fatalf("shards=%d: Record(%d) = %+v, %v; want the first inserted string", shards, ids[0], rec, ok)
		}
		if _, ok := v.Record(3); ok {
			t.Fatalf("shards=%d: removed record still visible after rebuild", shards)
		}
	}
}

// TestDynamicIndexConcurrentServeMutate hammers snapshots with concurrent
// Query/QueryTopK/Probe traffic while writers insert and remove records and
// rebuilds fire underneath — the test exists to run under -race, and it
// finishes with an oracle check on the final state.
func TestDynamicIndexConcurrentServeMutate(t *testing.T) {
	for _, shards := range []int{1, 3} {
		testConcurrentServeMutate(t, shards)
	}
}

func testConcurrentServeMutate(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(23))
	j := NewJoiner(propertyContexts()["full"])
	dx := j.BuildShardedIndex(propertyCorpus(30, rng), shards, Options{Theta: 0.75, Tau: 2, Method: pebble.AUDP}, DynamicOptions{
		RebuildFraction: 0.1, MaxSegments: 3,
	})
	queries := rawCorpus(30, rng)
	probe := propertyCorpus(10, rng)

	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := dx.Snapshot()
				tokens := strutil.Tokenize(queries[(i+r)%len(queries)])
				switch i % 3 {
				case 0:
					v.ProbeRecord(tokens)
				case 1:
					v.QueryTopK(tokens, 5)
				default:
					v.Probe(probe)
				}
				st := v.Stats()
				if st.Live != st.Records-st.Dead {
					t.Errorf("inconsistent snapshot stats: %+v", st)
					return
				}
			}
		}(r)
	}

	// Two writers: inserts and removes contend on the writer lock.
	insertedIDs := make(chan int, 4096)
	writers.Add(2)
	go func() {
		defer writers.Done()
		wrng := rand.New(rand.NewSource(29))
		for i := 0; i < 40; i++ {
			for _, id := range dx.InsertBatch(rawCorpus(3, wrng)) {
				select {
				case insertedIDs <- id:
				default:
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 60; i++ {
			select {
			case id := <-insertedIDs:
				dx.Remove(id)
			default:
				dx.Remove(i % 30)
			}
		}
	}()

	writers.Wait()
	close(done)
	readers.Wait()

	v := dx.Snapshot()
	got, _ := v.Probe(probe)
	want := oracleOnLive(j, v, probe, 0.75)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shards=%d: final Probe %d pairs, oracle %d pairs", shards, len(got), len(want))
	}
	if dx.Stats().Rebuilds == 0 {
		t.Fatalf("shards=%d: expected rebuilds under mutation load", shards)
	}
}

// TestProbeTallyStats pins the cumulative filter-phase counters: probes
// served by a dynamic index must accumulate ProbePostings and the
// bitmap/slice token split in Stats, growing monotonically, read fresh
// through any snapshot, and summing over the shards.
func TestProbeTallyStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	j := NewJoiner(propertyContexts()["full"])
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	corpus := propertyCorpus(200, rng)
	queries := propertyCorpus(20, rng)

	for _, shards := range []int{1, 3} {
		sx := j.BuildShardedIndex(corpus, shards, opts, DynamicOptions{})
		if st := sx.Stats(); st.ProbePostings != 0 || st.ProbeBitsetTokens != 0 || st.ProbeSliceTokens != 0 {
			t.Fatalf("shards=%d: fresh index has nonzero probe tallies: %+v", shards, st)
		}
		v := sx.Snapshot()
		for _, q := range queries {
			v.ProbeRecord(q.Tokens)
		}
		st := v.Stats()
		if st.ProbePostings == 0 {
			t.Fatalf("shards=%d: probes processed no postings", shards)
		}
		if st.ProbeBitsetTokens+st.ProbeSliceTokens == 0 {
			t.Fatalf("shards=%d: probes consulted no posting lists", shards)
		}
		for _, q := range queries {
			v.QueryTopK(q.Tokens, 3)
		}
		// Counters are index-lifetime, read fresh through any snapshot.
		if st2 := v.Stats(); st2.ProbePostings <= st.ProbePostings {
			t.Fatalf("shards=%d: tallies did not grow: %d then %d", shards, st.ProbePostings, st2.ProbePostings)
		}
	}
}
