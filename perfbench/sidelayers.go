package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cluster"
)

// Every traced run reports every per-layer metric. A layer that the
// workload's own traffic does not reach — the single node's HTTP data plane
// in the join and cluster workloads, the coordinator in the join and serve
// workloads — is timed after the measured phase on a side deployment over
// the workload's own catalog and reads. Side deployments never run during
// the measured phase, and no end-to-end metric reads them.

// sideCoordQueries is how many reads a side cluster answers through its
// coordinator, one at a time.
const sideCoordQueries = 200

// sideNode times a single aujoind for a workload that runs none. One
// durable node over the workload's catalog, started with the serve
// workload's flags, replays ops — the stream the in-process replay ran —
// one request at a time, so each /query meets the index state its
// in-process counterpart met. It is then killed and restarted on its data
// directory serveRestarts times; every restart must keep every
// acknowledged write.
func sideNode(r *runner, ds dataset, catalog []string, ops []replayOp, tau int) error {
	path := filepath.Join(r.dir, "side-catalog.txt")
	if err := writeLines(path, catalog); err != nil {
		return err
	}
	dataDir := filepath.Join(r.dir, "side-data")
	p, addr, _, err := startNode(r, ds, path, dataDir, tau, "side-node")
	if err != nil {
		return fmt.Errorf("side node: %w", err)
	}
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	base := "http://" + addr

	var st0, st1 aujoin.IndexStats
	if err := getJSON(r.ctx, c, base+"/stats", &st0); err != nil {
		return err
	}
	inproc := inprocQueryUs(r.tr)
	var lat, diff []float64
	var respBytes int
	for _, o := range ops {
		var err error
		switch {
		case o.write != nil:
			var resp cluster.InsertResponse
			err = postJSON(r.ctx, c, base+"/insert", cluster.InsertRequest{Records: o.write}, &resp)
		case o.remove != nil:
			var resp cluster.RemoveBatchResponse
			err = postJSON(r.ctx, c, base+"/remove-batch", cluster.RemoveBatchRequest{IDs: o.remove}, &resp)
		default:
			sp := r.tr.start("http.node_query", 0, o.req)
			t0 := time.Now()
			var n int
			_, n, err = queryTopK(r.ctx, c, base, o.query, "", nil)
			d := time.Since(t0)
			sp.end()
			if err == nil {
				lat = append(lat, ms(d))
				respBytes += n
				if us, ok := inproc[o.req]; ok {
					diff = append(diff, float64(d)/1e3-us)
				}
			}
		}
		if r.ctx.Err() != nil {
			return errCancelled
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: side node:", err)
			r.check(1, 1)
			continue
		}
		r.check(1, 0)
	}
	if err := getJSON(r.ctx, c, base+"/stats", &st1); err != nil {
		return err
	}
	planLayers(r, st0, st1)
	r.layer["cluster.node_http_us"] = median(diff)
	r.layer["cluster.node_http_tax"] = ratio(median(lat)*1e3, r.layer["join.query_us_p50"])
	if _, ok := r.layer["cluster.response_bytes"]; !ok {
		r.layer["cluster.response_bytes"] = float64(respBytes) / float64(max(len(lat), 1))
	}

	var restarts []float64
	for i := 0; i < serveRestarts; i++ {
		p.kill()
		var d time.Duration
		p, addr, d, err = startNode(r, ds, path, dataDir, tau, fmt.Sprintf("side-node-restart-%d", i))
		if err != nil {
			return fmt.Errorf("side node restart: %w", err)
		}
		restarts = append(restarts, d.Seconds())
		var after aujoin.IndexStats
		if err := getJSON(r.ctx, c, "http://"+addr+"/stats", &after); err != nil {
			return err
		}
		if after.Records != st1.Records || after.Live != st1.Live {
			fmt.Fprintf(os.Stderr, "perfbench: side node restart holds %d/%d records, want %d/%d\n", after.Live, after.Records, st1.Live, st1.Records)
			r.check(1, 1)
		} else {
			r.check(1, 0)
		}
	}
	r.layer["store.restart_ready_s"] = median(restarts)
	return nil
}

// sideCluster times the coordinator layer for a workload that runs no
// cluster: the cluster workload's deployment (clusterWorkers workers,
// R = clusterReplicas) over the workload's catalog answers
// sideCoordQueries of its reads through the coordinator, one at a time,
// and then straight from the workers.
func sideCluster(r *runner, ds dataset, catalog, queries []string, tau int) error {
	path := filepath.Join(r.dir, "side-catalog.txt")
	if err := writeLines(path, catalog); err != nil {
		return err
	}
	dep, _, _, err := bootCluster(r, ds, path, tau, "side")
	if err != nil {
		return fmt.Errorf("side cluster: %w", err)
	}
	defer dep.kill()
	base := "http://" + dep.coordAt
	s := newService(r, base, queries, nil, false, 0)
	defer s.close()

	var c0, c1 cluster.CoordStats
	if err := getJSON(r.ctx, s.clients[0], base+"/stats", &c0); err != nil {
		return err
	}
	var coordMs []float64
	for i := 0; i < sideCoordQueries; i++ {
		sp := r.tr.start("http.coord_query", 0, int64(i))
		t0 := time.Now()
		_, _, err := queryTopK(r.ctx, s.clients[0], base, queries[i%len(queries)], "", nil)
		d := time.Since(t0)
		sp.end()
		if r.ctx.Err() != nil {
			return errCancelled
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: side cluster:", err)
			r.check(1, 1)
			continue
		}
		r.check(1, 0)
		coordMs = append(coordMs, ms(d))
	}
	if err := getJSON(r.ctx, s.clients[0], base+"/stats", &c1); err != nil {
		return err
	}
	return clusterLayers(r, s, dep, c0, c1, coordMs)
}

// inprocQueryUs maps request IDs to the time, in microseconds, of the
// in-process replay's index query for that request.
func inprocQueryUs(tr *tracer) map[int64]float64 {
	out := map[int64]float64{}
	for _, sp := range tr.closed() {
		if sp.Name == "join.QueryTopKCtx" {
			out[sp.Req] = float64(sp.End-sp.Start) / 1e3
		}
	}
	return out
}
