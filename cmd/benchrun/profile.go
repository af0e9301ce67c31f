package main

import (
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
)

// profileResult summarizes one "profile" run: a CPU profile of a mixed
// batch-join and serving workload, written in pprof format for
// profile-guided optimization (go build -pgo=<file>).
type profileResult struct {
	out     string
	elapsed time.Duration
	joins   int
	probes  int
}

func (r profileResult) String() string {
	return fmt.Sprintf("wrote CPU profile to %s (%v sampled: %d joins, %d probes)\n"+
		"build with it: go build -pgo=%s ./...", r.out, r.elapsed.Round(time.Millisecond), r.joins, r.probes, r.out)
}

// runProfile samples a representative workload under the CPU profiler:
// batch R×S joins and a self-join across θ/τ settings (signature
// selection, hybrid count filter, prepared verification), then dynamic
// serving — inserts driving segment growth and rebuilds, interleaved with
// single-record and top-k probes. The mix keeps the hot paths the PGO
// build should specialize — countFilterRecord, FlushDense, the verifier —
// dominant in the sample.
func runProfile(out string, size int, seed int64) fmt.Stringer {
	gen := datagen.New(datagen.MEDLike(size, seed))
	ds := gen.Generate()
	j := join.NewJoiner(ds.Context())

	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	start := time.Now()

	joins := 0
	for _, tau := range []int{2, 3} {
		j.Join(ds.S, ds.T, join.Options{Theta: 0.80, Tau: tau, Method: pebble.AUDP})
		joins++
	}
	j.SelfJoin(ds.S, join.Options{Theta: 0.85, Tau: 2, Method: pebble.AUDP})
	joins++

	opts := join.Options{Theta: 0.80, Tau: 2, Method: pebble.AUDP}
	sx := j.BuildShardedIndex(ds.S, 1, opts, join.DynamicOptions{})
	probes := 0
	insertBatch := make([]string, 0, 64)
	for round := 0; round < 8; round++ {
		insertBatch = insertBatch[:0]
		for i := 0; i < 64; i++ {
			insertBatch = append(insertBatch, gen.BaseRecord())
		}
		sx.InsertBatch(insertBatch)
		v := sx.Snapshot()
		for i := 0; i < 2000; i++ {
			tokens := ds.T[(round*2000+i)%len(ds.T)].Tokens
			if i%2 == 0 {
				v.ProbeRecord(tokens)
			} else {
				v.QueryTopK(tokens, 10)
			}
			probes++
		}
	}

	elapsed := time.Since(start)
	pprof.StopCPUProfile()
	return profileResult{out: out, elapsed: elapsed, joins: joins, probes: probes}
}
