package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/aujoin/aujoin/internal/cluster"
)

// The cluster workload: aujoin-coord in front of three aujoind workers.
const (
	clusterCatalog = 1000
	// clusterCatalogSeed fixes the catalog across runs, as for serve: the
	// cost of a full-record probe follows the catalog's token skew. At this
	// seed the program misses a match of "hodohu bire" and of a few other
	// probe records (README.md, "Known misses and defects"); the run's seed
	// draws the order of the queries and the inserts.
	clusterCatalogSeed = 3
	clusterWorkers     = 3
	clusterReplicas    = 2
	clusterTau         = 2
	clusterSetups      = 5   // bootstraps per run; the median is reported
	clusterReadRate    = 20  // nominal /query rate, per second
	clusterWriteRate   = 8   // coordinator-routed /insert calls per second
	clusterLimitMs     = 50  // p90 latency limit of a ladder step
	clusterDirect      = 200 // direct-to-worker queries of a traced run
)

// deployment is one running cluster.
type deployment struct {
	coord   *proc
	coordAt string
	workers []*proc
	addrs   []string
}

func (d *deployment) kill() {
	for _, p := range append([]*proc{d.coord}, d.workers...) {
		if p != nil {
			p.kill()
		}
	}
}

// runCluster measures scatter-gather serving through the coordinator.
func runCluster(r *runner) error {
	ds, err := genInputs(r, clusterCatalog, clusterCatalogSeed)
	if err != nil {
		return err
	}
	catalog := ds.left
	catalogPath := filepath.Join(r.dir, "catalog.txt")
	if err := writeLines(catalogPath, catalog); err != nil {
		return err
	}
	// Probe records alternate between near duplicates of catalog records
	// (even datagen positions) and fresh draws (odd positions).
	perm := rand.New(rand.NewSource(r.seed + 33)).Perm(len(ds.right) / 2)
	queries := make([]string, 0, len(ds.right))
	for _, k := range perm {
		queries = append(queries, ds.right[2*k], ds.right[2*k+1])
	}
	inserts := insertBatches(r.seed, ds.right)

	var dep *deployment
	var setups, setupWall []float64
	failedBoots := 0
	for i := 0; i < clusterSetups; i++ {
		if dep != nil {
			dep.kill()
		}
		var d time.Duration
		var failed int
		dep, d, failed, err = bootCluster(r, ds, catalogPath, clusterTau, strconv.Itoa(i))
		failedBoots += failed
		if err != nil {
			return err
		}
		var cpu time.Duration
		for _, p := range append([]*proc{dep.coord}, dep.workers...) {
			c, err := p.cpu()
			if err != nil {
				return err
			}
			cpu += c
		}
		setups = append(setups, cpu.Seconds())
		setupWall = append(setupWall, d.Seconds())
	}
	r.meta["setup_wall_s"] = median(setupWall)
	r.meta["failed_bootstraps"] = failedBoots

	base := "http://" + dep.coordAt
	s := newService(r, base, queries, inserts, false, clusterWriteRate)
	defer s.close()
	var c0, c1 cluster.CoordStats
	if err := getJSON(r.ctx, s.clients[0], base+"/stats", &c0); err != nil {
		return err
	}
	nominalBase := s.readBase.Load()
	stopRSS := sampleRSS(append([]*proc{dep.coord}, dep.workers...))
	nominal := s.phase(clusterReadRate, time.Duration(r.seconds*float64(time.Second)), r.tr)
	rss := stopRSS()
	if err := getJSON(r.ctx, s.clients[0], base+"/stats", &c1); err != nil {
		return err
	}
	reads, writes := summarize(nominal, false), summarize(nominal, true)
	r.check(reads.Attempted+writes.Attempted, reads.Failed+writes.Failed)

	j, err := ds.publicJoiner()
	if err != nil {
		return err
	}
	ij, err := ds.internalJoiner()
	if err != nil {
		return err
	}
	ref := s.reference(j, ij.Calculator(), catalog, clusterTau)
	// Every probe record is checked once, by brute force: a full-record
	// probe costs the reference index about as much as brute force over
	// this catalog, and checking all of them, not a sample, keeps the
	// handful of records the program misses in every run's count.
	if err := s.checkAnswers(ref, queries, len(queries)); err != nil {
		return err
	}

	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_ms_p50"] = median(reads.LatMs)
	r.meta["latency_ms_p90"] = percentile(reads.LatMs, 90)
	r.meta["write_ms_p50"] = median(writes.LatMs)
	r.e2e["rss_mb"] = percentile(rss, 90)
	r.e2e["success_rate"] = r.successRate()
	r.meta["flush_policy"] = "none: cluster workers keep no durable state (aujoind -join takes no -data-dir)"
	r.meta["ladder"] = map[string]any{"rungs": rateLadder, "p90_limit_ms": clusterLimitMs}
	r.meta["cluster"] = map[string]any{
		"catalog": clusterCatalog, "workers": clusterWorkers, "replicas": clusterReplicas, "theta": theta, "tau": clusterTau, "filter": filter,
		"nominal_read_rate": clusterReadRate, "write_rate": clusterWriteRate, "connections": conns(),
		"read_mix": "full-record probes, half near duplicates of catalog records, half fresh; k=10",
		"reads":    len(reads.LatMs), "query_ms_p99": percentile(reads.LatMs, 99), "p90_samples_beyond": beyond(len(reads.LatMs), 90), "checked_answers": r.checked, "incomplete_answers": r.misses,
		"inserts": len(writes.LatMs), "insert_ms_p99": percentile(writes.LatMs, tailPercentile(len(writes.LatMs))),
		"insert_tail_percentile": tailPercentile(len(writes.LatMs)),
	}
	if r.tr == nil {
		return nil
	}
	saturated := s.capacity(saturatedWindow)
	r.meta["throughput_per_s"] = saturated
	maxQPS, rungs := s.ladder(rateLadder, saturated, clusterLimitMs, 2*time.Second)
	r.meta["ladder"] = map[string]any{"rungs": rateLadder, "p90_limit_ms": clusterLimitMs, "steps": rungs, "max_qps": maxQPS}

	// Per-layer: the coordinator's own counters and direct worker queries
	// stamped with the coordinator's epoch, then the in-process replay and
	// a single node's HTTP data plane over the same stream.
	if err := clusterLayers(r, s, dep, c0, c1, reads.LatMs); err != nil {
		return err
	}
	ops := replayStream(s, nominal, nominalBase)
	if err := probeLayers(r, ds, layerInput{catalog: catalog, queries: queriesOf(ops), ops: ops, tau: clusterTau}); err != nil {
		return err
	}
	r.layer["cluster.response_bytes"] = float64(s.respB.Load()) / float64(max(s.respN.Load(), 1))
	harnessLayers(r, nominal)
	dep.kill()
	return sideNode(r, ds, catalog, ops, clusterTau)
}

// bootCluster starts the workers and then the coordinator over the catalog
// file and returns the deployment once the coordinator is ready, with the
// time that took and the number of failed attempts. A bootstrap normally
// takes under a second; one that fails is a failed operation of the run and
// is retried, up to three attempts, so that the run still measures the
// rest.
func bootCluster(r *runner, ds dataset, catalogPath string, tau int, name string) (*deployment, time.Duration, int, error) {
	for attempt := 0; ; attempt++ {
		dep, d, err := bootOnce(r, ds, catalogPath, tau, fmt.Sprintf("%s-%d", name, attempt))
		if err == nil {
			r.check(1, 0)
			return dep, d, attempt, nil
		}
		r.check(1, 1)
		if attempt == 2 || r.ctx.Err() != nil {
			return nil, 0, attempt + 1, fmt.Errorf("bootstrap: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: bootstrap failed, retrying:", err)
	}
}

func bootOnce(r *runner, ds dataset, catalogPath string, tau int, name string) (*deployment, time.Duration, error) {
	d := &deployment{}
	addrs, err := freeAddrs(1 + clusterWorkers)
	if err != nil {
		return nil, 0, err
	}
	d.coordAt = addrs[0]
	t0 := time.Now()
	// Workers first, then the coordinator, in the order the README's
	// cluster quick-start gives (see "Known misses and defects" in
	// README.md for what the reverse order can do).
	for w := 0; w < clusterWorkers; w++ {
		addr := addrs[1+w]
		wname := fmt.Sprintf("worker-%s-%d", name, w)
		p, err := r.ps.start(r.exe("aujoind"), wname, filepath.Join(r.dir, wname+".log"),
			"-addr", addr, "-join", "http://"+d.coordAt, "-shards", "1",
			"-synonyms", ds.synonyms(), "-taxonomy", ds.taxonomy())
		if err != nil {
			d.kill()
			return nil, 0, err
		}
		d.workers, d.addrs = append(d.workers, p), append(d.addrs, "http://"+addr)
	}
	cname := "coord-" + name
	d.coord, err = r.ps.start(r.exe("aujoin-coord"), cname, filepath.Join(r.dir, cname+".log"),
		"-addr", d.coordAt, "-expect-workers", strconv.Itoa(clusterWorkers), "-replicas", strconv.Itoa(clusterReplicas),
		"-catalog", catalogPath, "-theta", strconv.FormatFloat(theta, 'f', -1, 64), "-tau", strconv.Itoa(tau), "-filter", filter)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	if err := waitReady(r.ctx, "http://"+d.coordAt+"/readyz", append([]*proc{d.coord}, d.workers...), 30*time.Second); err != nil {
		d.kill()
		if b, rerr := os.ReadFile(d.coord.log); rerr == nil {
			os.Stderr.Write(b) // the coordinator logs why its bootstrap failed
		}
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// clusterLayers fills the coordinator-layer metrics from the coordinator's
// counters before (c0) and after (c1) a read phase, that phase's /query
// latencies through the coordinator, and direct worker queries.
func clusterLayers(r *runner, s *service, dep *deployment, c0, c1 cluster.CoordStats, coordMs []float64) error {
	workerMs, err := directWorkerQueries(r, s, dep, c1.Epoch)
	if err != nil {
		return err
	}
	r.layer["cluster.merge_ms_p50"] = c1.MergeMsP50
	r.layer["cluster.epoch_bumps"] = float64(c1.Bumps - c0.Bumps)
	r.layer["cluster.worker_query_ms_p50"] = median(workerMs)
	r.layer["cluster.coord_tax"] = ratio(median(coordMs), median(workerMs))
	return nil
}

// directWorkerQueries sends /query?group=g straight to workers, stamped
// with the coordinator's epoch, and returns their latencies in ms.
func directWorkerQueries(r *runner, s *service, dep *deployment, epoch int64) ([]float64, error) {
	hdr := http.Header{}
	hdr.Set(cluster.EpochHeader, strconv.FormatInt(epoch, 10))
	c := s.clients[0]
	var out []float64
	for w, addr := range dep.addrs {
		group := -1
		for g := 0; g < clusterWorkers && group < 0; g++ {
			if _, _, err := queryTopK(r.ctx, c, addr, s.queries[0], "&group="+strconv.Itoa(g), hdr); err == nil {
				group = g
			}
		}
		if group < 0 {
			return nil, fmt.Errorf("worker %d serves no group at epoch %d", w, epoch)
		}
		for i := w; i < clusterDirect; i += len(dep.addrs) {
			sp := r.tr.start("http.worker_query", 0, int64(i))
			t0 := time.Now()
			_, _, err := queryTopK(r.ctx, c, addr, s.queries[i%len(s.queries)], "&group="+strconv.Itoa(group), hdr)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				r.check(1, 1)
				continue
			}
			r.check(1, 0)
			out = append(out, ms(d))
		}
	}
	return out, nil
}
