package join

import (
	"reflect"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// tokensOracle computes the join the pre-refactor way: SimilarityTokens on
// raw token slices for every pair, no preparation, no thresholded bounds.
func tokensOracle(j *Joiner, s, t []strutil.Record, theta float64) []Pair {
	var out []Pair
	for i := range s {
		for l := range t {
			v := j.Calculator().SimilarityTokens(s[i].Tokens, t[l].Tokens)
			if v >= theta {
				out = append(out, Pair{S: s[i].ID, T: t[l].ID, Similarity: v})
			}
		}
	}
	return out
}

// TestPreparedVerifyMatchesTokensOracle pins the whole prepared pipeline —
// BruteForce and the filtered build-once/probe-many join — against the raw
// SimilarityTokens oracle, exactly (including the Similarity values), across
// filters and thresholds.
func TestPreparedVerifyMatchesTokensOracle(t *testing.T) {
	j := NewJoiner(paperContext())
	s := benchCorpus(60, 31)
	u := benchCorpus(60, 32)
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			want := tokensOracle(j, s, u, theta)
			if got := j.BruteForce(s, u, theta, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v θ=%v: BruteForce disagrees with tokens oracle: %d vs %d pairs",
					method, theta, len(got), len(want))
			}
			opts := Options{Theta: theta, Tau: 2, Method: method}
			ix := j.buildIndex(s, j.BuildOrder(s, u), opts, nil)
			got, _ := ix.probe(u, opts, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v θ=%v: filtered join disagrees with tokens oracle: %d vs %d pairs",
					method, theta, len(got), len(want))
			}
		}
	}
}

// TestProbeRecordMatchesOracle checks single-record serving returns exactly
// the indexed records the raw similarity reaches θ with, at every shard
// count.
func TestProbeRecordMatchesOracle(t *testing.T) {
	j := NewJoiner(paperContext())
	s := benchCorpus(80, 41)
	probes := benchCorpus(20, 42)
	for _, shards := range []int{1, 3} {
		v := j.BuildShardedIndex(s, shards, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{}).Snapshot()
		for _, p := range probes {
			got := v.ProbeRecord(p.Tokens)
			var want []QueryMatch
			for r := range s {
				if val := j.Calculator().SimilarityTokens(s[r].Tokens, p.Tokens); val >= 0.8 {
					want = append(want, QueryMatch{Record: s[r].ID, Similarity: val})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: ProbeRecord(%v) = %v, want %v", shards, p.Raw, got, want)
			}
		}
	}
}
