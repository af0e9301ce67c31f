package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/strutil"
)

// The serve workload: one durable aujoind over a MED-like catalog.
const (
	serveCatalog = 5000
	// serveCatalogSeed fixes the catalog across runs; the run's seed draws
	// the read stream, the write stream and the removes. Serve latency
	// follows how frequent the catalog's head tokens are, and that varies
	// by ±15% from one datagen seed to the next — more than the program
	// changes the benchmark must resolve.
	serveCatalogSeed = 1
	serveTau         = 2
	serveSetups      = 7   // cold starts per run; the median is reported
	serveRestarts    = 3   // SIGKILL-and-restart cycles per run
	serveReadRate    = 100 // nominal /query rate, per second
	serveWriteRate   = 8   // /insert and /remove-batch calls per second
	serveLimitMs     = 25  // p90 latency limit of a ladder step
	serveChecks      = 100 // sampled answers compared after the load, and again after the restarts
	serveBrute       = 20  // of which judged by brute force whatever the reference index says
)

// rateLadder is the fixed rate ladder the serve and cluster workloads
// search for their highest sustainable read rate.
var rateLadder = geometricLadder(10, 5000, 1.03)

// runServe measures durable single-node serving: cold start, open-loop
// reads with acknowledged writes, the rate ladder, and SIGKILL restarts.
func runServe(r *runner) error {
	ds, err := genInputs(r, serveCatalog, serveCatalogSeed)
	if err != nil {
		return err
	}
	catalog := ds.left
	catalogPath := filepath.Join(r.dir, "catalog.txt")
	if err := writeLines(catalogPath, catalog); err != nil {
		return err
	}
	queries, inserts := mixedQueries(r.seed, catalog, ds.right), insertBatches(r.seed, ds.right)

	// start launches aujoind and returns it once /readyz answers 200,
	// with the time that took.
	var daemon *proc
	var addr string
	var setupWall []float64
	start := func(name, dataDir string) (time.Duration, error) {
		p, a, d, err := startNode(r, ds, catalogPath, dataDir, serveTau, name)
		if err != nil {
			return 0, err
		}
		daemon, addr = p, a
		return d, nil
	}

	var setups []float64
	dataDir := ""
	for i := 0; i < serveSetups; i++ {
		if daemon != nil {
			daemon.kill()
		}
		dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		d, err := start(fmt.Sprintf("aujoind-cold-%d", i), dataDir)
		if err != nil {
			return fmt.Errorf("cold start: %w", err)
		}
		cpu, err := daemon.cpu()
		if err != nil {
			return err
		}
		setups = append(setups, cpu.Seconds())
		setupWall = append(setupWall, d.Seconds())
	}
	r.meta["setup_wall_s"] = median(setupWall)

	base := "http://" + addr
	s := newService(r, base, queries, inserts, true, serveWriteRate)
	defer s.close()
	var st0, st1 aujoin.IndexStats
	if err := getJSON(r.ctx, s.clients[0], base+"/stats", &st0); err != nil {
		return err
	}
	nominalBase := s.readBase.Load()
	stopRSS := sampleRSS([]*proc{daemon})
	nominal := s.phase(serveReadRate, time.Duration(r.seconds*float64(time.Second)), r.tr)
	rss := stopRSS()
	if err := getJSON(r.ctx, s.clients[0], base+"/stats", &st1); err != nil {
		return err
	}
	reads, allWrites := summarize(nominal, false), summarize(nominal, true)
	writes := summarize(insertSamples(s, nominal), true)
	r.check(reads.Attempted+allWrites.Attempted, reads.Failed+allWrites.Failed)

	j, err := ds.publicJoiner()
	if err != nil {
		return err
	}
	ij, err := ds.internalJoiner()
	if err != nil {
		return err
	}
	ref := s.reference(j, ij.Calculator(), catalog, serveTau)
	if err := s.checkAnswers(ref, s.sampleQueries(serveChecks, 1), serveBrute); err != nil {
		return err
	}

	var restores []float64
	for i := 0; i < serveRestarts; i++ {
		daemon.kill()
		d, err := start(fmt.Sprintf("aujoind-restart-%d", i), dataDir)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		restores = append(restores, d.Seconds())
	}
	s.close()
	s.base = "http://" + addr
	var after aujoin.IndexStats
	if err := getJSON(r.ctx, s.clients[0], s.base+"/stats", &after); err != nil {
		return err
	}
	want := ref.ix.Stats()
	lost := max(0, want.Records-after.Records) + max(0, after.Live-want.Live)
	r.check(want.Records-serveCatalog, lost)
	if lost > 0 {
		r.meta["lost_acked_writes"] = lost
	}
	if err := s.checkAnswers(ref, s.sampleQueries(serveChecks, 2), serveBrute); err != nil {
		return err
	}

	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_ms_p50"] = median(reads.LatMs)
	r.meta["latency_ms_p90"] = percentile(reads.LatMs, 90)
	r.meta["write_ms_p50"] = median(writes.LatMs)
	r.e2e["rss_mb"] = percentile(rss, 90)
	r.e2e["success_rate"] = r.successRate()
	r.meta["flush_policy"] = "fsync on every WAL append; checkpoint at cold start only (-checkpoint-every 0), none during load"
	r.meta["ladder"] = map[string]any{"rungs": rateLadder, "p90_limit_ms": serveLimitMs}
	r.meta["serve"] = map[string]any{
		"catalog": serveCatalog, "theta": theta, "tau": serveTau, "filter": filter, "shards": 1,
		"nominal_read_rate": serveReadRate, "write_rate": serveWriteRate, "connections": conns(),
		"read_mix": "31/32 three-token hot-token lookups, 1/32 full-record near-duplicate probes; k=10",
		"reads":    len(reads.LatMs), "query_ms_p99": percentile(reads.LatMs, 99), "p90_samples_beyond": beyond(len(reads.LatMs), 90), "checked_answers": r.checked, "incomplete_answers": r.misses,
		"inserts": len(writes.LatMs), "insert_ms_p99": percentile(writes.LatMs, tailPercentile(len(writes.LatMs))),
		"insert_tail_percentile": tailPercentile(len(writes.LatMs)),
		"restore_s":              median(restores), "rebuilds": after.Rebuilds,
	}
	if r.tr == nil {
		return nil
	}
	// The saturated rate and the rate ladder run in traced runs only: they
	// vary too much from run to run to gate on (see README.md).
	saturated := s.capacity(saturatedWindow)
	r.meta["throughput_per_s"] = saturated
	maxQPS, rungs := s.ladder(rateLadder, saturated, serveLimitMs, 2*time.Second)
	r.meta["ladder"] = map[string]any{"rungs": rateLadder, "p90_limit_ms": serveLimitMs, "steps": rungs, "max_qps": maxQPS}

	// Per-layer: counters the daemon reported over the nominal phase, then
	// the in-process replay of the same stream.
	nq := float64(max(reads.Attempted, 1))
	ops := replayStream(s, nominal, nominalBase)
	if err := probeLayers(r, ds, layerInput{catalog: catalog, queries: queriesOf(ops), ops: ops, tau: serveTau}); err != nil {
		return err
	}
	r.layer["invindex.postings_per_probe"] = float64(st1.ProbePostings-st0.ProbePostings) / nq
	planLayers(r, st0, st1)
	r.layer["join.rebuilds"] = float64(after.Rebuilds)
	r.layer["store.restart_ready_s"] = median(restores)
	r.layer["cluster.response_bytes"] = float64(s.respB.Load()) / float64(max(s.respN.Load(), 1))
	harnessLayers(r, nominal)
	nodeHTTPLayers(r, nominal, nominalBase)
	daemon.kill()
	return sideCluster(r, ds, catalog, queriesOf(ops), serveTau)
}

// startNode launches one durable aujoind over the catalog file, with the
// serve workload's flags, and returns it once /readyz answers 200, with its
// address and the time that took.
func startNode(r *runner, ds dataset, catalogPath, dataDir string, tau int, name string) (*proc, string, time.Duration, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	p, err := r.ps.start(r.exe("aujoind"), name, filepath.Join(r.dir, name+".log"),
		"-addr", addrs[0], "-catalog", catalogPath, "-theta", strconv.FormatFloat(theta, 'f', -1, 64),
		"-tau", strconv.Itoa(tau), "-filter", filter, "-shards", "1",
		"-synonyms", ds.synonyms(), "-taxonomy", ds.taxonomy(), "-data-dir", dataDir, "-checkpoint-every", "0")
	if err != nil {
		return nil, "", 0, err
	}
	if err := waitReady(r.ctx, "http://"+addrs[0]+"/readyz", []*proc{p}, 60*time.Second); err != nil {
		p.kill()
		return nil, "", 0, err
	}
	return p, addrs[0], time.Since(t0), nil
}

// planLayers fills the planner metrics from a node's /stats before (st0)
// and after (st1) a stretch of queries: the plans it made, and the share
// of them that went to its most chosen configuration.
func planLayers(r *runner, st0, st1 aujoin.IndexStats) {
	plans, top := 0.0, 0.0
	for cfg, n := range st1.PlanDecisions {
		d := float64(n - st0.PlanDecisions[cfg])
		plans += d
		top = max(top, d)
	}
	r.layer["planner.decisions"] = plans
	r.layer["planner.top_config_share"] = top / max(plans, 1)
}

// harnessLayers fills the generator and tracing metrics of a traced run
// from the nominal phase's samples: reads with an even index were traced.
func harnessLayers(r *runner, nominal []sample) {
	var traced, plain, late []float64
	for _, x := range nominal {
		if x.Op.Write || !x.Sent || x.Err != nil {
			continue
		}
		late = append(late, ms(x.Late))
		if x.Op.Index%2 == 0 {
			traced = append(traced, ms(x.Latency))
		} else {
			plain = append(plain, ms(x.Latency))
		}
	}
	r.layer["harness.tracing_overhead"] = ratio(median(traced), median(plain))
	r.layer["harness.gen_late_ms_p99"] = percentile(late, 99)
}

// nodeHTTPLayers fills the HTTP-layer metrics of a single node from the
// nominal phase's reads and the in-process replay's spans of the same
// requests: what a /query costs beyond the index query it runs.
func nodeHTTPLayers(r *runner, nominal []sample, readBase int64) {
	inproc := inprocQueryUs(r.tr)
	var lat, diff []float64
	for _, x := range nominal {
		if x.Op.Write || !x.Sent || x.Err != nil {
			continue
		}
		lat = append(lat, ms(x.Latency))
		if us, ok := inproc[readBase+int64(x.Op.Index)]; ok {
			diff = append(diff, float64(x.Latency-x.Late)/1e3-us)
		}
	}
	r.layer["cluster.node_http_us"] = median(diff)
	r.layer["cluster.node_http_tax"] = ratio(median(lat)*1e3, r.layer["join.query_us_p50"])
}

// replayStream is the nominal phase as acknowledged: its reads in
// schedule order with the acknowledged writes spread among them.
func replayStream(s *service, nominal []sample, readBase int64) []replayOp {
	var reads []replayOp
	for _, x := range nominal {
		if !x.Op.Write {
			reads = append(reads, replayOp{query: s.queries[(int(readBase)+x.Op.Index)%len(s.queries)], req: readBase + int64(x.Op.Index)})
		}
	}
	s.mu.Lock()
	writes := append([]replayOp(nil), s.log...)
	s.mu.Unlock()
	var out []replayOp
	for i, w := range writes {
		out = append(out, w)
		out = append(out, reads[i*len(reads)/len(writes):(i+1)*len(reads)/len(writes)]...)
	}
	if len(writes) == 0 {
		out = reads
	}
	return out
}

func queriesOf(ops []replayOp) []string {
	var out []string
	for _, o := range ops {
		if o.write == nil && o.remove == nil {
			out = append(out, o.query)
		}
	}
	return out
}

// insertSamples keeps the insert writes of a phase (removes are not
// counted in the write latency).
func insertSamples(s *service, samples []sample) []sample {
	var out []sample
	for _, x := range samples {
		if x.Op.Write && s.isInsert(x.Op.Index) {
			out = append(out, x)
		}
	}
	return out
}

// hotTokens is how many of the catalog's most frequent tokens the short
// reads draw from.
const hotTokens = 8

// mixedQueries is the bimodal read stream: 31 in 32 reads are three-token
// lookups over the catalog's hotTokens most frequent tokens, and every 32nd is
// a whole probe record, a near duplicate of a catalog record or a fresh
// one. Fixed positions for the long reads keep every window of the stream
// at the same mix. The lookups come in shuffled blocks that hold every
// lookup in fixed proportions — "a a a" eight times for each hot token a,
// "a a b" and "a b b" once for each ordered pair (a, b) — the proportions
// of drawing the pattern and both tokens uniformly. Lookups cost from
// under a millisecond to several, so drawing each one independently let
// the median read move by 10% with the seed.
func mixedQueries(seed int64, catalog, probes []string) []string {
	freq := map[string]int{}
	for _, rec := range catalog {
		for _, tok := range strutil.Tokenize(rec) {
			freq[tok]++
		}
	}
	head := make([]string, 0, len(freq))
	for tok := range freq {
		head = append(head, tok)
	}
	sort.Slice(head, func(a, b int) bool {
		if freq[head[a]] != freq[head[b]] {
			return freq[head[a]] > freq[head[b]]
		}
		return head[a] < head[b]
	})
	head = head[:min(hotTokens, len(head))]
	var block []string
	for _, a := range head {
		for range head {
			block = append(block, strings.Join([]string{a, a, a}, " "))
		}
		for _, b := range head {
			block = append(block, strings.Join([]string{a, a, b}, " "), strings.Join([]string{a, b, b}, " "))
		}
	}
	rng := rand.New(rand.NewSource(seed + 11))
	out := make([]string, 20000)
	next := len(block)
	for i := range out {
		if i%32 == 31 {
			out[i] = probes[rng.Intn(len(probes))]
			continue
		}
		if next == len(block) {
			rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
			next = 0
		}
		out[i] = block[next]
		next++
	}
	return out
}

// insertBatches draws batches of one to four probe records to insert.
func insertBatches(seed int64, pool []string) [][]string {
	rng := rand.New(rand.NewSource(seed + 22))
	out := make([][]string, 2000)
	for i := range out {
		out[i] = make([]string, 1+rng.Intn(4))
		for k := range out[i] {
			out[i][k] = pool[rng.Intn(len(pool))]
		}
	}
	return out
}
