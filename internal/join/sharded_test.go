package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// shardCounts are the partitionings every invariance check runs under:
// the one-shard router (1), an even split (2) and
// a prime count that exercises uneven shard sizes (7 shards over ≲50
// records leaves some shards nearly empty).
var shardCounts = []int{1, 2, 7}

// TestShardedIndexShardCountInvariance is the correctness hinge of the
// sharded engine: shard assignment must never change results. The same
// corpus and the same mutation script are applied to routers with 1, 2 and
// 7 shards — across all three filter methods and θ ∈ {0.7, 0.8, 0.9}, with
// thresholds aggressive enough to force per-shard rebuilds — and after
// every round Probe, ProbeRecord and QueryTopK must be bit-identical across
// shard counts and equal to BruteForce over the live catalog.
func TestShardedIndexShardCountInvariance(t *testing.T) {
	ctx := propertyContexts()["full"]
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			rng := rand.New(rand.NewSource(31))
			j := NewJoiner(ctx)
			opts := Options{Theta: theta, Tau: 2, Method: method}
			corpus := propertyCorpus(30, rng)
			probe := propertyCorpus(20, rng)
			indexes := make([]*ShardedIndex, len(shardCounts))
			for i, n := range shardCounts {
				indexes[i] = j.BuildShardedIndex(corpus, n, opts, DynamicOptions{
					RebuildFraction: 0.15, MaxSegments: 3,
				})
			}
			// The mutation script is data, not calls, so every variant sees
			// the identical sequence (router ID allocation is deterministic:
			// sequential from the max initial ID).
			type mutation struct {
				insert []string
				remove []int
			}
			var script []mutation
			nextID := 30
			for round := 0; round < 4; round++ {
				ins := rawCorpus(6, rng)
				var rem []int
				for i := 0; i < 4; i++ {
					rem = append(rem, (round*7+i*3)%(nextID+len(ins)))
				}
				rem = append(rem, nextID+1) // an id from this very batch
				script = append(script, mutation{ins, rem})
				nextID += len(ins)
			}

			check := func(step int) {
				t.Helper()
				views := make([]*ShardedView, len(indexes))
				for i := range indexes {
					views[i] = indexes[i].Snapshot()
				}
				ref, refStats := views[0].Probe(probe)
				oracle := j.BruteForce(views[0].Live(), probe, theta, nil)
				if !reflect.DeepEqual(ref, oracle) {
					t.Fatalf("%v θ=%v step %d: shards=1 Probe %d pairs, oracle %d pairs",
						method, theta, step, len(ref), len(oracle))
				}
				if refStats.Results != len(ref) {
					t.Fatalf("%v θ=%v step %d: stats.Results = %d, want %d",
						method, theta, step, refStats.Results, len(ref))
				}
				for i := 1; i < len(views); i++ {
					if live := views[i].Live(); !reflect.DeepEqual(live, views[0].Live()) {
						t.Fatalf("%v θ=%v step %d: shards=%d live catalog diverged",
							method, theta, step, shardCounts[i])
					}
					got, _ := views[i].Probe(probe)
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%v θ=%v step %d: shards=%d Probe %d pairs, shards=1 %d pairs",
							method, theta, step, shardCounts[i], len(got), len(ref))
					}
				}
				for qi := 0; qi < 5; qi++ {
					tokens := probe[qi].Tokens
					refQ := views[0].ProbeRecord(tokens)
					for i := 1; i < len(views); i++ {
						if got := views[i].ProbeRecord(tokens); !reflect.DeepEqual(got, refQ) {
							t.Fatalf("%v θ=%v step %d shards=%d: ProbeRecord(%q) = %v, want %v",
								method, theta, step, shardCounts[i], probe[qi].Raw, got, refQ)
						}
						for _, k := range []int{-1, 0, 1, 3, len(refQ) + 2} {
							got := views[i].QueryTopK(tokens, k)
							var want []QueryMatch
							if k > 0 {
								want = views[0].QueryTopK(tokens, k)
							}
							if len(got) == 0 && len(want) == 0 {
								continue
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%v θ=%v step %d shards=%d: QueryTopK(%q, %d) = %v, want %v",
									method, theta, step, shardCounts[i], probe[qi].Raw, k, got, want)
							}
						}
					}
				}
			}

			check(0)
			for step, mut := range script {
				for i := range indexes {
					indexes[i].InsertBatch(mut.insert)
					// Router ID allocation must be identical across shard
					// counts for the invariance comparison to make sense.
					if want := indexes[0].nextID; indexes[i].nextID != want {
						t.Fatalf("id allocation diverged: shards=%d nextID=%d, shards=1 nextID=%d",
							shardCounts[i], indexes[i].nextID, want)
					}
					indexes[i].RemoveBatch(mut.remove)
					if want := indexes[0].Snapshot().Stats().Live; indexes[i].Snapshot().Stats().Live != want {
						t.Fatalf("live count diverged after removes: shards=%d", shardCounts[i])
					}
				}
				check(step + 1)
			}
			// Every variant must actually have exercised per-shard
			// rebuilds, or the test proves nothing about them.
			for i, sx := range indexes {
				if sx.Stats().Rebuilds == 0 {
					t.Fatalf("%v θ=%v: shards=%d never rebuilt under the mutation script",
						method, theta, shardCounts[i])
				}
			}
		}
	}
}

// TestShardedIndexRemoveBatchSemantics pins the per-ID report of RemoveBatch:
// present IDs true exactly once, absent and re-removed IDs false, and a
// batch mixing shards lands on every involved shard.
func TestShardedIndexRemoveBatchSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	j := NewJoiner(propertyContexts()["synonyms"])
	sx := j.BuildShardedIndex(propertyCorpus(20, rng), 4, Options{Theta: 0.8, Tau: 1}, DynamicOptions{})
	got := sx.RemoveBatch([]int{3, 99, 3, 7, -1, 12})
	want := []bool{true, false, false, true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RemoveBatch = %v, want %v", got, want)
	}
	if live := sx.Stats().Live; live != 17 {
		t.Fatalf("Live = %d after 3 removals from 20, want 17", live)
	}
	if sx.RemoveBatch(nil) != nil {
		t.Fatal("RemoveBatch(nil) should be nil")
	}
}

// TestShardedIndexSharedCache checks that one prepared-record cache spans
// all shards: re-inserting a removed record that hashes to a different
// shard must still hit, and the counters surface in the stats.
func TestShardedIndexSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	j := NewJoiner(propertyContexts()["plain"])
	sx := j.BuildShardedIndex(propertyCorpus(8, rng), 3, Options{Theta: 0.8, Tau: 1}, DynamicOptions{})
	raw := []string{"coffee shop latte helsinki"}
	id0 := sx.InsertBatch(raw)[0]
	sx.Remove(id0)
	// Re-insert until the fresh ID routes to a different shard than id0.
	var id1 int
	for {
		id1 = sx.InsertBatch(raw)[0]
		if shardOf(id1, 3) != shardOf(id0, 3) {
			break
		}
		sx.Remove(id1)
	}
	st := sx.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("re-insert across shards never hit the shared cache: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("first insert should have missed: %+v", st)
	}
	if st.Shards != 3 {
		t.Fatalf("Shards = %d, want 3", st.Shards)
	}
}

// TestShardedIndexStableIDsAcrossShardRebuilds checks stable IDs keep
// identifying the same strings after forced per-shard rebuilds, and that
// ShardedView.Record routes to the right shard.
func TestShardedIndexStableIDsAcrossShardRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	j := NewJoiner(propertyContexts()["synonyms"])
	sx := j.BuildShardedIndex(propertyCorpus(12, rng), 3, Options{Theta: 0.8, Tau: 1}, DynamicOptions{
		RebuildFraction: 0.05, MaxSegments: 1,
	})
	ids := sx.InsertBatch([]string{"coffee shop latte helsinki", "apple cake bakery special"})
	for i := 0; i < 10; i++ {
		sx.Remove(i)
	}
	if sx.Stats().Rebuilds == 0 {
		t.Fatal("expected per-shard rebuilds")
	}
	v := sx.Snapshot()
	rec, ok := v.Record(ids[0])
	if !ok || rec.Raw != "coffee shop latte helsinki" {
		t.Fatalf("Record(%d) = %+v, %v; want the first inserted string", ids[0], rec, ok)
	}
	if _, ok := v.Record(3); ok {
		t.Fatal("removed record still visible after rebuild")
	}
	if got := len(sx.RebuildPauses()); got != sx.Stats().Rebuilds {
		t.Fatalf("RebuildPauses has %d entries, Rebuilds = %d", got, sx.Stats().Rebuilds)
	}
}

// TestShardedIndexConcurrentMutateQuery hammers a 4-shard router with
// concurrent InsertBatch/RemoveBatch writers and fan-out readers while
// per-shard rebuilds fire — it exists to run under -race — and finishes
// with an oracle check of the final state.
func TestShardedIndexConcurrentMutateQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	j := NewJoiner(propertyContexts()["full"])
	sx := j.BuildShardedIndex(propertyCorpus(30, rng), 4, Options{Theta: 0.75, Tau: 2, Method: pebble.AUDP}, DynamicOptions{
		RebuildFraction: 0.1, MaxSegments: 2,
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
				v := sx.Snapshot()
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

	insertedIDs := make(chan int, 4096)
	writers.Add(2)
	go func() {
		defer writers.Done()
		wrng := rand.New(rand.NewSource(53))
		for i := 0; i < 40; i++ {
			batch := rawCorpus(4, wrng)
			// Novel tokens grow the shared dynamic region past the frozen
			// prefix, so global refreezes fire while readers snapshot —
			// exercising the generation-retry path under the race detector.
			for b := range batch {
				batch[b] += fmt.Sprintf(" zaw%dqx%dv", i, b)
			}
			for _, id := range sx.InsertBatch(batch) {
				select {
				case insertedIDs <- id:
				default:
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 30; i++ {
			batch := []int{i % 30}
			select {
			case id := <-insertedIDs:
				batch = append(batch, id)
			default:
			}
			sx.RemoveBatch(batch)
		}
	}()

	writers.Wait()
	close(done)
	readers.Wait()

	v := sx.Snapshot()
	got, _ := v.Probe(probe)
	want := j.BruteForce(v.Live(), probe, 0.75, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final Probe %d pairs, oracle %d pairs", len(got), len(want))
	}
	if sx.Stats().Rebuilds == 0 {
		t.Fatal("expected per-shard rebuilds under mutation load")
	}
	if sx.Refreezes() == 0 {
		t.Fatal("expected global refreezes under novel-key mutation load")
	}
}

// TestShardedIndexGlobalRefreeze drives sustained novel-key inserts until
// the shared order's dynamic region reaches RebuildFraction of its frozen
// prefix and the router swaps in a fresh order: the dynamic region must
// reset, stable IDs must survive, and results must still match BruteForce on
// a fresh generation-consistent snapshot — at one shard as at three.
func TestShardedIndexGlobalRefreeze(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testGlobalRefreeze(t, shards) })
	}
}

func testGlobalRefreeze(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(59))
	j := NewJoiner(propertyContexts()["full"])
	sx := j.BuildShardedIndex(propertyCorpus(12, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	probe := propertyCorpus(10, rng)
	keep := sx.InsertBatch([]string{"coffee shop latte helsinki"})[0]
	var novel []int
	for i := 0; sx.Refreezes() == 0 && i < 500; i++ {
		novel = append(novel, sx.InsertBatch([]string{fmt.Sprintf("novel%dxa token%dyb fresh%dzc", i, i, i)})...)
	}
	if sx.Refreezes() == 0 {
		t.Fatal("global refreeze never fired under sustained novel-key inserts")
	}
	st := sx.Stats()
	if float64(st.DynamicKeys) >= defaultRebuildFraction*float64(st.FrozenKeys) {
		t.Fatalf("dynamic region did not reset at the refreeze: %+v", st)
	}
	v := sx.Snapshot()
	if rec, ok := v.Record(keep); !ok || rec.Raw != "coffee shop latte helsinki" {
		t.Fatalf("stable id %d lost across the refreeze: %+v %v", keep, rec, ok)
	}
	got, _ := v.Probe(probe)
	want := j.BruteForce(v.Live(), probe, 0.7, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-refreeze Probe %d pairs, oracle %d pairs", len(got), len(want))
	}
	// Removing the novel records and mutating further keeps working on the
	// new generation.
	sx.RemoveBatch(novel[:len(novel)/2])
	v = sx.Snapshot()
	got, _ = v.Probe(probe)
	want = j.BruteForce(v.Live(), probe, 0.7, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-refreeze mutation Probe %d pairs, oracle %d pairs", len(got), len(want))
	}
}

// TestShardCompactionKeepsOrder pins the other half of order ownership: a
// MaxSegments-triggered rebuild of a 1-shard index only compacts — segments
// merged under the router's current order — so the frozen prefix and the
// generation stay as they were, and answers still match BruteForce.
func TestShardCompactionKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	j := NewJoiner(propertyContexts()["full"])
	corpus := propertyCorpus(20, rng)
	probe := propertyCorpus(10, rng)
	sx := j.BuildShardedIndex(corpus, 1, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{MaxSegments: 2})
	before := sx.Stats()
	// Re-inserting catalog strings adds no new key, so only the segment
	// chain can trigger the rebuild.
	for b := 0; b < 3; b++ {
		sx.InsertBatch([]string{corpus[2*b].Raw, corpus[2*b+1].Raw})
	}
	after := sx.Stats()
	if after.Rebuilds == 0 || after.Segments != 0 {
		t.Fatalf("MaxSegments never compacted the shard: %+v", after)
	}
	if after.FrozenKeys != before.FrozenKeys || after.DynamicKeys != 0 || sx.Refreezes() != 0 {
		t.Fatalf("compaction changed the order: frozen %d -> %d, dynamic %d, generation %d",
			before.FrozenKeys, after.FrozenKeys, after.DynamicKeys, sx.Refreezes())
	}
	v := sx.Snapshot()
	got, _ := v.Probe(probe)
	if want := j.BruteForce(v.Live(), probe, 0.7, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction Probe %d pairs, oracle %d pairs", len(got), len(want))
	}
}
