package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// The pair comparison catches a planted missing pair, a planted extra pair
// and a planted wrong similarity.
func TestComparePairsCatchesPlantedMismatches(t *testing.T) {
	want := map[pairKey]float64{{1, 2}: 0.9, {3, 4}: 1, {5, 6}: 0.85}
	got := map[pairKey]float64{{1, 2}: 0.9, {3, 4}: 1, {5, 6}: 0.85}
	if d := comparePairs(got, want, 1e-4); d != (pairDiff{Oracle: 3}) || d.unsound() {
		t.Fatalf("identical outputs: %+v", d)
	}
	delete(got, pairKey{3, 4})   // missing
	got[pairKey{7, 8}] = 0.8     // extra
	got[pairKey{5, 6}] = 0.80001 // wrong similarity
	d := comparePairs(got, want, 1e-4)
	if d.Missing != 1 || d.Extra != 1 || d.WrongSim != 1 || !d.unsound() {
		t.Fatalf("planted missing, extra and wrong-similarity pairs: got %+v", d)
	}
	// A missing pair alone is a completeness miss, not an unsound answer.
	only := map[pairKey]float64{{1, 2}: 0.9, {5, 6}: 0.85}
	if d := comparePairs(only, want, 1e-4); d.Missing != 1 || d.unsound() {
		t.Fatalf("missing pair only: %+v", d)
	}
}

// The exact check of a sampled /query answer catches a miss that the
// reference index shares with the program, and an unsound answer.
func TestJudgeBruteForcesSharedMisses(t *testing.T) {
	catalog := []string{"apple pie", "apple pie", "banana split", "cherry tart"}
	calc := join.NewJoiner(sim.NewContext(nil, nil)).Calculator()
	ref := refIndex{calc: calc, live: map[int]*core.PreparedRecord{},
		ix: aujoin.New().IndexWith(catalog, aujoin.JoinOptions{Theta: theta, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})}
	for id, rec := range catalog {
		ref.live[id] = calc.Prepare(strutil.Tokenize(rec))
	}
	// Record 1 stays live but the reference index loses it, the way a
	// filter defect shared by the program and the reference would.
	ref.ix.RemoveBatch([]int{1})
	q := "apple pie"
	got := ref.ix.QueryTopK(q, topK)
	if len(got) != 1 || got[0].Record != 0 {
		t.Fatalf("reference index answer %v, want record 0 alone", got)
	}
	if unsound, incomplete := ref.judge(q, got, false); unsound || incomplete {
		t.Fatalf("an answer equal to the reference index's passes without the exact check: unsound %v, incomplete %v", unsound, incomplete)
	}
	if unsound, incomplete := ref.judge(q, got, true); unsound || !incomplete {
		t.Fatalf("exact check of an answer missing live record 1: unsound %v, incomplete %v", unsound, incomplete)
	}
	both := []aujoin.QueryMatch{{Record: 0, Similarity: 1}, {Record: 1, Similarity: 1}}
	if unsound, incomplete := ref.judge(q, both, true); unsound || incomplete {
		t.Fatalf("exact check of the complete answer: unsound %v, incomplete %v", unsound, incomplete)
	}
	extra := append(both, aujoin.QueryMatch{Record: 2, Similarity: 1})
	if unsound, _ := ref.judge(q, extra, false); !unsound {
		t.Fatal("an answer holding a non-matching record is not unsound")
	}
}

// Printed four-decimal similarities compare within the tolerance, and left
// positions are shifted into the whole collection.
func TestParsePairs(t *testing.T) {
	got, err := parsePairs(strings.NewReader("0\t5\t0.9524\n3\t1\t1.0000\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[pairKey]float64{{0, 5}: 0.9523809523809523, {3, 1}: 1}
	if d := comparePairs(got, want, 1e-4); d != (pairDiff{Oracle: 2}) {
		t.Fatalf("round-trip of printed pairs: %+v", d)
	}
	if _, err := parsePairs(strings.NewReader("0\t5\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// A span's self time excludes the union of its children's intervals.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Name: "child", Start: 10_000, End: 30_000},
		{ID: 3, Parent: 1, Name: "child", Start: 20_000, End: 50_000},
		{ID: 4, Parent: 1, Name: "child", Start: 70_000, End: 80_000},
	}
	if got := tr.selfTimesUs("parent"); len(got) != 1 || got[0] != 50 {
		t.Fatalf("self time %v µs, want [50]", got)
	}
	var nilTracer *tracer
	nilTracer.start("x", 0, 0).end() // inert
}

// BENCHMARK.json lists exactly the metrics the driver reports, with the
// same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench/")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		seen := map[string]bool{}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %q: BENCHMARK.json unit %q, driver unit %q", kind, m.Name, m.Unit, units[m.Name])
			}
			seen[m.Name] = true
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %q is reported but not in BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, e2eUnits)
	check("per-layer", spec.PerLayer, layerUnits)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
}
