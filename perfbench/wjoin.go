package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/aujoin/aujoin/internal/strutil"
)

// The join workload: cold aujoin processes join probe batches of the left
// collection against a fixed right collection.
const (
	// joinDataSeed fixes the dataset across runs, as for serve and
	// cluster: records differ so much in verification cost that the
	// median join time of per-seed datasets moved by ±15% from seed to
	// seed. It is the datagen seed of the AU-Filter reproduction in
	// README.md. The run's seed shuffles the left records, so it draws
	// which records share a batch.
	joinDataSeed = 1
	joinTau      = 3
	joinT        = 300 // right-collection records every join reads
	joinBatch    = 40  // left records per join
	joinPool     = 320 // left records the batches cycle through
	joinSetups   = 31  // set-up runs per run; the median is reported
	joinMinJoins = 100 // enough joins that 10 lie beyond p90
)

// runJoin measures the batch join. One join is one aujoin process joining
// a 40-record probe batch against the 300-record collection; every output
// is compared with the brute-force oracle.
func runJoin(r *runner) error {
	ds, err := genInputs(r, joinPool, joinDataSeed)
	if err != nil {
		return err
	}
	right := ds.right[:joinT]
	base, err := joinOracle(r, ds, ds.left[:joinPool], right)
	if err != nil {
		return err
	}
	// The run's seed shuffles the left records; the oracle's left
	// positions follow.
	at := rand.New(rand.NewSource(r.seed)).Perm(joinPool) // at[i]: dataset position of left[i]
	left := make([]string, len(at))
	pos := make([]int, len(at)) // inverse of at
	for i, k := range at {
		left[i], pos[k] = ds.left[k], i
	}
	oracle := make(map[pairKey]float64, len(base))
	for k, v := range base {
		oracle[pairKey{pos[k.S], k.T}] = v
	}
	rightPath := filepath.Join(r.dir, "right.txt")
	if err := writeLines(rightPath, right); err != nil {
		return err
	}

	type batch struct {
		path   string
		offset int // position of the batch's first record in left
	}
	var batches []batch
	for off := 0; off < len(left); off += joinBatch {
		b := batch{path: filepath.Join(r.dir, fmt.Sprintf("batch-%d.txt", off)), offset: off}
		if err := writeLines(b.path, left[off:off+joinBatch]); err != nil {
			return err
		}
		batches = append(batches, b)
	}
	setupPath := filepath.Join(r.dir, "setup.txt")
	if err := writeLines(setupPath, left[:1]); err != nil {
		return err
	}

	args := func(leftPath string) []string {
		return []string{"-left", leftPath, "-right", rightPath, "-synonyms", ds.synonyms(), "-taxonomy", ds.taxonomy(),
			"-theta", strconv.FormatFloat(theta, 'f', -1, 64), "-tau", strconv.Itoa(joinTau), "-filter", filter}
	}
	outPath := filepath.Join(r.dir, "out.txt")
	var rss []float64 // peak resident set of each join, MiB
	var missing, extra, wrong, oraclePairs int
	// join runs one aujoin process over b and checks its output.
	join := func(b batch, req int64, traced bool) (time.Duration, error) {
		tr := r.tr
		if !traced {
			tr = nil
		}
		out, err := os.Create(outPath)
		if err != nil {
			return 0, err
		}
		sp := tr.start("cli.join", 0, req)
		run, runErr := runCLI(r.ctx, r.exe("aujoin"), out, args(b.path)...)
		sp.end()
		out.Close()
		rss = append(rss, float64(run.RSSKB)/1024)
		if r.ctx.Err() != nil {
			return 0, errCancelled
		}
		bad := 0
		if runErr == nil {
			got, perr := readPairs(outPath, b.offset)
			if perr != nil {
				runErr = perr
			} else {
				d := comparePairs(got, oracleSlice(oracle, b.offset, joinBatch), 1e-4)
				missing, extra, wrong, oraclePairs = missing+d.Missing, extra+d.Extra, wrong+d.WrongSim, oraclePairs+d.Oracle
				if d.unsound() {
					bad = 1
				}
			}
		}
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: join:", runErr)
			bad = 1
		}
		r.check(1, bad)
		return run.Wall, nil
	}

	var setups, setupWall []float64
	for i := 0; i < joinSetups; i++ {
		run, err := runCLI(r.ctx, r.exe("aujoin"), nil, args(setupPath)...)
		if err != nil {
			return fmt.Errorf("set-up join: %w", err)
		}
		setups = append(setups, run.CPU.Seconds())
		setupWall = append(setupWall, run.Wall.Seconds())
	}
	r.meta["setup_wall_s"] = median(setupWall)

	var joinMs, recPerS, tracedMs, plainMs, gapMs []float64
	start := time.Now()
	var prevStart time.Time
	var prevWall time.Duration
	limit := time.Duration(2 * r.seconds * float64(time.Second))
	for k := 0; ; k++ {
		el := time.Since(start)
		if (el.Seconds() >= r.seconds && len(joinMs) >= joinMinJoins) || el > limit {
			break
		}
		b := batches[k%len(batches)]
		// Tracing alternates by whole passes over the batches, so traced
		// and untraced joins cover the same inputs.
		traced := (k/len(batches))%2 == 0
		t0 := time.Now()
		if k > 0 {
			// Joins run back to back, so each is due when the previous
			// one exits; the driver's gap before starting it (checking
			// the previous output) is its lateness.
			gapMs = append(gapMs, ms(t0.Sub(prevStart)-prevWall))
		}
		wall, err := join(b, int64(k), traced)
		if err != nil {
			return err
		}
		prevStart, prevWall = t0, wall
		joinMs = append(joinMs, ms(wall))
		if traced {
			tracedMs = append(tracedMs, ms(wall))
		} else {
			plainMs = append(plainMs, ms(wall))
		}
		recPerS = append(recPerS, float64(joinBatch+joinT)/wall.Seconds())
	}

	r.e2e["setup_s"] = median(setups)
	// A pass joins every batch once, so every pass covers the same records
	// whatever the seed; the median over passes of a pass's mean join time
	// does not hinge on which batch lands in the middle.
	var passMs []float64
	for p := 0; (p+1)*len(batches) <= len(joinMs); p++ {
		passMs = append(passMs, mean(joinMs[p*len(batches):(p+1)*len(batches)]))
	}
	r.e2e["latency_ms_p50"] = median(passMs)
	r.meta["latency_ms_p90"] = percentile(joinMs, 90)
	r.meta["throughput_per_s"] = median(recPerS)
	r.e2e["rss_mb"] = mean(rss)
	r.e2e["success_rate"] = 1 - float64(missing+extra+wrong)/float64(max(oraclePairs, 1))
	r.meta["flush_policy"] = "none: the aujoin command keeps no durable state"
	r.meta["join"] = map[string]any{
		"left_batch": joinBatch, "right": joinT, "theta": theta, "tau": joinTau, "filter": filter,
		"joins": len(joinMs), "passes": len(passMs), "oracle_pairs_checked": oraclePairs,
		"missing_pairs": missing, "extra_pairs": extra, "wrong_similarity": wrong,
		"p90_samples_beyond": beyond(len(joinMs), 90),
	}
	if r.tr == nil {
		return nil
	}
	r.layer["harness.tracing_overhead"] = ratio(median(tracedMs), median(plainMs))
	r.layer["harness.gen_late_ms_p99"] = percentile(gapMs, 99)
	// The CLI joins never write, but every traced run reports every layer:
	// the in-process replay (and the side node after it) also fold the
	// probe records into the index, a batch of one to four after every
	// fourth query, so the join and store write paths are timed on this
	// workload's records. More insert batches than a delta chain holds
	// (64) make the index rebuild at least once.
	var ops []replayOp
	ins := insertBatches(r.seed, left)
	for i, q := range left {
		ops = append(ops, replayOp{query: q, req: int64(i)})
		if i%4 == 3 {
			ops = append(ops, replayOp{write: ins[i/4]})
		}
	}
	if err := probeLayers(r, ds, layerInput{catalog: right, queries: left, ops: ops, tau: joinTau}); err != nil {
		return err
	}
	if err := sideNode(r, ds, right, ops, joinTau); err != nil {
		return err
	}
	return sideCluster(r, ds, right, left, joinTau)
}

// oracleFile caches the brute-force pairs of the join workload's dataset.
// Key names everything the pairs depend on (see oracleKey).
type oracleFile struct {
	Key   string
	Pairs [][3]float64 // left position, right position, similarity
}

// oracleKey hashes what the brute-force pairs depend on: both collections,
// the knowledge files, θ, and this driver's own executable, which holds the
// similarity code that computes them. A cached oracle from other inputs or
// another build of the library is never reused.
func oracleKey(ds dataset, left, right []string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "theta %v\n", theta)
	for _, side := range [][]string{left, right} {
		fmt.Fprintf(h, "%d records\n", len(side))
		for _, rec := range side {
			fmt.Fprintf(h, "%q\n", rec)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	for _, path := range []string{ds.synonyms(), ds.taxonomy(), exe} {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// joinOracle returns every pair of left × right at or above θ, computed by
// brute force once and cached under its key.
func joinOracle(r *runner, ds dataset, left, right []string) (map[pairKey]float64, error) {
	key, err := oracleKey(ds, left, right)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.cache, "join-"+key[:16]+".json")
	var of oracleFile
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &of) == nil && of.Key == key {
		return oracleMap(of), nil
	}
	j, err := ds.internalJoiner()
	if err != nil {
		return nil, err
	}
	pairs, err := j.BruteForceCtx(r.ctx, strutil.NewCollection(left), strutil.NewCollection(right), theta, j.Calculator())
	if err != nil {
		return nil, err
	}
	of = oracleFile{Key: key}
	for _, p := range pairs {
		of.Pairs = append(of.Pairs, [3]float64{float64(p.S), float64(p.T), p.Similarity})
	}
	b, err := json.Marshal(of)
	if err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return oracleMap(of), nil
}

func oracleMap(of oracleFile) map[pairKey]float64 {
	m := make(map[pairKey]float64, len(of.Pairs))
	for _, p := range of.Pairs {
		m[pairKey{int(p[0]), int(p[1])}] = p[2]
	}
	return m
}

// oracleSlice is the oracle's pairs whose left record lies in
// [offset, offset+size).
func oracleSlice(all map[pairKey]float64, offset, size int) map[pairKey]float64 {
	out := map[pairKey]float64{}
	for k, v := range all {
		if k.S >= offset && k.S < offset+size {
			out[k] = v
		}
	}
	return out
}

// readPairs parses a join output file, shifting left positions by offset
// so they index the whole left collection.
func readPairs(path string, offset int) (map[pairKey]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	local, err := parsePairs(f)
	if err != nil {
		return nil, err
	}
	out := make(map[pairKey]float64, len(local))
	for k, v := range local {
		out[pairKey{k.S + offset, k.T}] = v
	}
	return out, nil
}
