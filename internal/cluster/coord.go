package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
	"github.com/aujoin/aujoin/internal/metrics"
)

// CoordConfig parameterises a Coordinator.
type CoordConfig struct {
	// Workers is the expected membership size; the cluster bootstraps once
	// that many workers have registered (membership is fixed afterwards —
	// worker loss changes availability, never placement).
	Workers int
	// Replicas is the replication factor R (clamped to [1, Workers]).
	Replicas int
	// Theta/Tau/Filter are the join parameters pushed to every worker.
	Theta  float64
	Tau    int
	Filter string
	// Catalog is seeded through the normal sequenced apply path at
	// bootstrap, after which the coordinator runs the first epoch bump so
	// the cluster serves under a properly frozen global order.
	Catalog []string
	// HedgeDelay is how long a group read waits on its first replica before
	// racing the request against a second one (0 = 50ms; < 0 disables
	// hedging).
	HedgeDelay time.Duration
	// Heartbeat is the health-check interval (0 = 500ms).
	Heartbeat time.Duration
	// SyncFraction triggers an automatic epoch bump when any worker's
	// dynamic key region reaches this fraction of its frozen prefix
	// (0 = 1.0, the single-node re-freeze trigger; < 0 disables auto
	// bumps — POST /epoch/bump still works).
	SyncFraction float64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Worker health states, tracked per registered worker.
const (
	workerJoining int32 = iota
	workerReady
	workerDown
)

// Coordinator is the cluster's stateless-over-workers control and data
// plane: membership and health, consistent-hash placement, the order-epoch
// state machine, sequenced mutation routing, and scatter-gather serving of
// /query and /probe. It holds no record data — every answer is assembled
// from worker responses — so a lost coordinator is replaced by starting a
// new one against a fresh worker set.
type Coordinator struct {
	cfg    CoordConfig
	client *http.Client

	epoch atomic.Int64
	ready atomic.Bool

	mu      sync.Mutex // membership, ID allocation, bootstrap latch
	workers []*workerRef
	ring    *Ring
	nextID  int
	booted  bool
	bootErr error
	lanes   []*groupLane

	// mutMu orders mutations against epoch bumps: mutations hold it shared,
	// a bump exclusively — so a bump sees a quiescent sequence space and
	// mutations stall (reads do not) for the bump's duration.
	mutMu sync.RWMutex

	rr      atomic.Uint64 // read-plan rotation
	queries atomic.Int64
	bumps   atomic.Int64

	mergeMu sync.Mutex
	mergeMs []float64 // recent gather+merge wall times, milliseconds
}

// workerRef is one registered worker: its advertise address, health state,
// and last heartbeat.
type workerRef struct {
	addr  string
	state atomic.Int32
	fails atomic.Int32

	hbMu sync.Mutex
	hb   Heartbeat
}

// groupLane serializes one group's mutation stream: the lane mutex is held
// across the fan-out to the group's replicas, so sequence numbers reach
// every replica in allocation order.
type groupLane struct {
	mu  sync.Mutex
	seq uint64
}

// NewCoordinator builds a coordinator; workers register themselves via
// POST /cluster/register and the cluster bootstraps when the expected
// number have arrived.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 50 * time.Millisecond
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.SyncFraction == 0 {
		cfg.SyncFraction = 1.0
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	return &Coordinator{cfg: cfg, client: &http.Client{}}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Mux returns the coordinator's route table. The serving endpoints mirror
// aujoind's exactly — a cluster client speaks the same protocol against the
// coordinator that a single-node client speaks against the daemon.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/register", c.handleRegister)
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/probe", c.handleProbe)
	mux.HandleFunc("/insert", c.handleInsert)
	mux.HandleFunc("/remove", c.handleRemove)
	mux.HandleFunc("/remove-batch", c.handleRemoveBatch)
	mux.HandleFunc("/epoch/bump", c.handleBump)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !c.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "cluster is not bootstrapped", Code: "not_ready"})
			return
		}
		writeJSON(w, map[string]any{"ready": true, "epoch": c.epoch.Load()})
	})
	return mux
}

// Run drives the health checker (and the auto-bump trigger) until ctx ends.
func (c *Coordinator) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.checkHealth(ctx)
		}
	}
}

// --- membership and bootstrap ---

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil || req.Addr == "" {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	known := false
	for _, ref := range c.workers {
		if ref.addr == req.Addr {
			known = true
			break
		}
	}
	if !known && len(c.workers) < c.cfg.Workers {
		c.workers = append(c.workers, &workerRef{addr: req.Addr})
		c.logf("worker %d/%d registered: %s", len(c.workers), c.cfg.Workers, req.Addr)
	}
	boot := len(c.workers) == c.cfg.Workers && !c.booted
	if boot {
		c.booted = true
	}
	c.mu.Unlock()
	if boot {
		go c.bootstrap()
	}
	writeJSON(w, RegisterResponse{Accepted: true, Configured: c.ready.Load()})
}

// bootstrap fixes the membership and placement, pushes the configuration to
// every worker, seeds the catalog through the normal sequenced apply path,
// and runs the first epoch bump so the cluster serves under a global frozen
// order instead of an all-dynamic one. Only then does the coordinator
// become ready.
func (c *Coordinator) bootstrap() {
	c.mu.Lock()
	addrs := make([]string, len(c.workers))
	for i, ref := range c.workers {
		addrs[i] = ref.addr
	}
	c.ring = NewRing(len(addrs), c.cfg.Replicas)
	c.lanes = make([]*groupLane, len(addrs))
	for g := range c.lanes {
		c.lanes[g] = &groupLane{}
	}
	c.epoch.Store(1)
	c.mu.Unlock()

	ctx := context.Background()
	for i, ref := range c.refs() {
		cfg := ConfigRequest{
			Workers: addrs, Self: i, Replicas: c.ring.Replicas(), Epoch: 1,
			Theta: c.cfg.Theta, Tau: c.cfg.Tau, Filter: c.cfg.Filter,
		}
		if err := c.postJSON(ctx, ref.addr+"/cluster/config", cfg, nil); err != nil {
			c.mu.Lock()
			c.bootErr = fmt.Errorf("configure %s: %w", ref.addr, err)
			c.mu.Unlock()
			c.logf("bootstrap failed: %v", c.bootErr)
			return
		}
		ref.state.Store(workerReady)
	}
	c.logf("configured %d workers (%d groups, %d-way replication)", len(addrs), c.ring.Workers(), c.ring.Replicas())

	if len(c.cfg.Catalog) > 0 {
		start := time.Now()
		const seedBatch = 512
		for at := 0; at < len(c.cfg.Catalog); at += seedBatch {
			end := min(at+seedBatch, len(c.cfg.Catalog))
			if _, err := c.insertRecords(ctx, c.cfg.Catalog[at:end]); err != nil {
				c.mu.Lock()
				c.bootErr = fmt.Errorf("seed catalog: %w", err)
				c.mu.Unlock()
				c.logf("bootstrap failed: %v", c.bootErr)
				return
			}
		}
		c.logf("seeded %d records in %v", len(c.cfg.Catalog), time.Since(start).Round(time.Millisecond))
	}

	// The seeds were interned as dynamic keys under an empty frozen order;
	// the first bump freezes the true global frequencies over them.
	if err := c.BumpEpoch("bootstrap"); err != nil {
		c.mu.Lock()
		c.bootErr = fmt.Errorf("initial epoch bump: %w", err)
		c.mu.Unlock()
		c.logf("bootstrap failed: %v", c.bootErr)
		return
	}
	c.ready.Store(true)
	c.logf("cluster ready: epoch %d", c.epoch.Load())
}

// refs snapshots the registered workers.
func (c *Coordinator) refs() []*workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*workerRef(nil), c.workers...)
}

// BootstrapErr reports a failed bootstrap (nil while in progress or after
// success).
func (c *Coordinator) BootstrapErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bootErr
}

// Ready reports whether the cluster has bootstrapped.
func (c *Coordinator) Ready() bool { return c.ready.Load() }

// markDown takes a worker out of the read and write plans. It is called the
// moment a request to the worker hard-fails — conservative by design: a
// replica that may have missed a sequenced write must not serve until the
// health checker proves its sequences match again.
func (c *Coordinator) markDown(ref *workerRef, cause error) {
	if ref.state.Swap(workerDown) != workerDown {
		c.logf("worker %s marked down: %v", ref.addr, cause)
	}
}

// checkHealth polls every worker's /readyz, failing workers out after two
// consecutive misses and readmitting a down worker only when its heartbeat
// proves it is at the coordinator's epoch with matching per-group
// sequences (a network blip, not a missed write). It also fires the
// auto-bump when a worker's dynamic region outgrows the sync fraction.
func (c *Coordinator) checkHealth(ctx context.Context) {
	// bootstrap installs the ring under c.mu, possibly while this tick runs.
	c.mu.Lock()
	booted := c.ring != nil
	c.mu.Unlock()
	if !booted {
		return
	}
	var maxFrozen, maxDyn int
	for _, ref := range c.refs() {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		hb, err := c.getHeartbeat(hctx, ref.addr)
		cancel()
		if err != nil || !hb.Ready {
			if ref.fails.Add(1) >= 2 {
				c.markDown(ref, fmt.Errorf("health check: %v", err))
			}
			continue
		}
		ref.fails.Store(0)
		ref.hbMu.Lock()
		ref.hb = hb
		ref.hbMu.Unlock()
		if hb.FrozenKeys > maxFrozen {
			maxFrozen = hb.FrozenKeys
		}
		if hb.DynamicKeys > maxDyn {
			maxDyn = hb.DynamicKeys
		}
		if ref.state.Load() == workerDown && c.ready.Load() {
			if hb.Epoch == c.epoch.Load() && c.seqsMatch(hb) {
				ref.state.Store(workerReady)
				c.logf("worker %s readmitted", ref.addr)
			}
		}
	}
	if c.cfg.SyncFraction >= 0 && c.ready.Load() {
		frozen := max(maxFrozen, 1)
		if maxDyn > 0 && float64(maxDyn) >= c.cfg.SyncFraction*float64(frozen) {
			if err := c.BumpEpoch("dynamic region reached sync fraction"); err != nil {
				c.logf("auto epoch bump: %v", err)
			}
		}
	}
}

// seqsMatch reports whether a heartbeat's per-group applied sequences equal
// the coordinator's lanes for every group in the heartbeat.
func (c *Coordinator) seqsMatch(hb Heartbeat) bool {
	for raw, seq := range hb.Groups {
		g, err := strconv.Atoi(raw)
		if err != nil || g < 0 || g >= len(c.lanes) {
			return false
		}
		c.lanes[g].mu.Lock()
		want := c.lanes[g].seq
		c.lanes[g].mu.Unlock()
		if seq != want {
			return false
		}
	}
	return true
}

func (c *Coordinator) getHeartbeat(ctx context.Context, addr string) (Heartbeat, error) {
	var hb Heartbeat
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
	if err != nil {
		return hb, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return hb, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		return hb, err
	}
	return hb, nil
}

// --- scatter-gather reads ---

// GatherFailure is one group's unrecoverable read failure: every live
// replica was tried.
type GatherFailure struct {
	Group int
	Addr  string
	Err   error
}

// GatherError is the structured failure of a cluster scatter-gather: which
// groups failed, on which worker, with what error. Unwrap exposes the
// underlying errors to errors.Is/As.
type GatherError struct {
	Failures []GatherFailure
}

func (e *GatherError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d group(s) failed", len(e.Failures))
	for i, f := range e.Failures {
		sep := ": "
		if i > 0 {
			sep = "; "
		}
		fmt.Fprintf(&b, "%sgroup %d (%s): %v", sep, f.Group, f.Addr, f.Err)
	}
	return b.String()
}

// Unwrap exposes the per-group errors.
func (e *GatherError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// body is the JSON shape a failed gather answers with.
func (e *GatherError) body() map[string]any {
	fails := make([]map[string]any, len(e.Failures))
	for i, f := range e.Failures {
		fails[i] = map[string]any{"group": f.Group, "addr": f.Addr, "error": f.Err.Error()}
	}
	return map[string]any{"error": "scatter-gather failed", "code": "gather_failed", "failures": fails}
}

// readCandidates returns the live replicas of group g in the order to try
// them, rotated per request so the read load spreads across the group.
func (c *Coordinator) readCandidates(g int) []*workerRef {
	reps := c.ring.GroupReplicas(g)
	rot := int(c.rr.Add(1)) % len(reps)
	refs := c.refs()
	out := make([]*workerRef, 0, len(reps))
	for i := range reps {
		ref := refs[reps[(i+rot)%len(reps)]]
		if ref.state.Load() == workerReady {
			out = append(out, ref)
		}
	}
	return out
}

// fetchGroup runs fetch against group g's replicas with hedging and
// failover: the first replica gets HedgeDelay of exclusive time, then a
// second attempt races it; remaining replicas are tried as earlier attempts
// fail. The first success wins and cancels the losers. fetch must be safe
// to run concurrently against different replicas and must only have
// client-visible effects on success (the buffered top-k fetch qualifies;
// the streaming probe forward manages its own failover instead).
func (c *Coordinator) fetchGroup(ctx context.Context, g int, fetch func(ctx context.Context, ref *workerRef) (any, error)) (any, error) {
	cands := c.readCandidates(g)
	if len(cands) == 0 {
		return nil, errors.New("no live replica")
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		val any
		err error
		ref *workerRef
		idx int
	}
	results := make(chan result, len(cands))
	launched := 0
	launch := func() {
		idx := launched
		ref := cands[idx]
		launched++
		go func() {
			val, err := fetch(fctx, ref)
			results <- result{val: val, err: err, ref: ref, idx: idx}
		}()
	}
	launch()
	hedge := (*time.Timer)(nil)
	var hedgeCh <-chan time.Time
	if c.cfg.HedgeDelay > 0 && len(cands) > 1 {
		hedge = time.NewTimer(c.cfg.HedgeDelay)
		defer hedge.Stop()
		hedgeCh = hedge.C
	}
	var errs []error
	pending := 1
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil
			if launched < len(cands) {
				launch()
				pending++
			}
		case res := <-results:
			pending--
			if res.err == nil {
				return res.val, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			errs = append(errs, fmt.Errorf("%s: %w", res.ref.addr, res.err))
			c.markDown(res.ref, res.err)
			if launched < len(cands) {
				launch()
				pending++
			} else if pending == 0 {
				return nil, errors.Join(errs...)
			}
		}
	}
}

// fetchTopK reads one group's top-k stream fully (buffered — failover must
// stay possible until the merge, so nothing is forwarded early), restamping
// and retrying once on an epoch-mismatch 409 (a bump's commit may be
// landing on the worker at that moment).
func (c *Coordinator) fetchTopK(ctx context.Context, ref *workerRef, g int, rawQuery string) ([]aujoin.QueryMatch, error) {
	do := func() (*http.Response, error) {
		url := fmt.Sprintf("%s/query?%s&group=%d", ref.addr, rawQuery, g)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set(EpochHeader, strconv.FormatInt(c.epoch.Load(), 10))
		return c.client.Do(req)
	}
	resp, err := do()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusConflict {
		// The worker's commit may be a beat behind the coordinator's epoch
		// flip; one restamped retry covers the window.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(20 * time.Millisecond)
		if resp, err = do(); err != nil {
			return nil, err
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var out []aujoin.QueryMatch
	err = cmdutil.DecodeNDJSON(resp.Body, func(m aujoin.QueryMatch) error {
		out = append(out, m)
		return nil
	})
	return out, err
}

// handleQuery scatter-gathers a top-k query: one live replica per group
// answers for the group, per-group streams are gathered and k-bound merged
// under the engine's total order (similarity descending, ID ascending), and
// the merged top k streams to the client as NDJSON. The request context
// fans out to every worker stream: a client disconnect cancels them all.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Query().Get("q") == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	opts, err := ParseQueryOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "cluster is not bootstrapped", Code: "not_ready"})
		return
	}
	c.queries.Add(1)
	start := time.Now()
	raw := r.URL.Query()
	raw.Del("group")
	rawQuery := raw.Encode()

	groups := c.ring.Workers()
	parts := make([][]aujoin.QueryMatch, groups)
	gerrs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val, err := c.fetchGroup(r.Context(), g, func(ctx context.Context, ref *workerRef) (any, error) {
				return c.fetchTopK(ctx, ref, g, rawQuery)
			})
			if err != nil {
				gerrs[g] = err
				return
			}
			parts[g] = val.([]aujoin.QueryMatch)
		}(g)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client is gone; nothing to tell it
	}
	var ge GatherError
	for g, err := range gerrs {
		if err != nil {
			ge.Failures = append(ge.Failures, GatherFailure{Group: g, Addr: strings.Join(c.groupAddrs(g), ","), Err: err})
		}
	}
	if len(ge.Failures) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		_ = json.NewEncoder(w).Encode(ge.body())
		return
	}
	merged := mergeTopK(parts, opts.K)
	c.noteMerge(time.Since(start))
	nw := cmdutil.NewNDJSONWriter(w)
	for _, m := range merged {
		if nw.Write(m) != nil {
			return
		}
	}
}

// groupAddrs lists group g's replica addresses (for error reporting).
func (c *Coordinator) groupAddrs(g int) []string {
	refs := c.refs()
	reps := c.ring.GroupReplicas(g)
	out := make([]string, len(reps))
	for i, w := range reps {
		out[i] = refs[w].addr
	}
	return out
}

// mergeTopK folds per-group top-k lists into the global top k under the
// engine's total order: similarity descending, stable ID ascending on ties
// — exactly the order a single-node QueryTopK returns, which is what makes
// cluster answers bit-identical. Sound because each group's top k contains
// every group-local record that can reach the global top k.
func mergeTopK(parts [][]aujoin.QueryMatch, k int) []aujoin.QueryMatch {
	var all []aujoin.QueryMatch
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Similarity != all[b].Similarity {
			return all[a].Similarity > all[b].Similarity
		}
		return all[a].Record < all[b].Record
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// noteMerge records one gather+merge wall time for the /stats percentiles.
func (c *Coordinator) noteMerge(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	c.mergeMu.Lock()
	if len(c.mergeMs) >= 4096 {
		c.mergeMs = append(c.mergeMs[:0], c.mergeMs[len(c.mergeMs)/2:]...)
	}
	c.mergeMs = append(c.mergeMs, ms)
	c.mergeMu.Unlock()
}

// handleProbe scatter-gathers a probe batch: the same batch goes to one
// live replica per group and every confirmed match line is forwarded to the
// client as it arrives (the groups partition the catalog, so the union of
// group streams is exactly the single-node result; S carries stable IDs, T
// positions in the request batch). A group whose replica dies before
// emitting anything fails over; once a group has emitted, a mid-stream
// death aborts the response — a silently truncated result would read as a
// complete one.
func (c *Coordinator) handleProbe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req ProbeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !c.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "cluster is not bootstrapped", Code: "not_ready"})
		return
	}

	fctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var outMu sync.Mutex
	var nw *cmdutil.NDJSONWriter
	emitted := false
	emit := func(line ProbeMatch) error {
		outMu.Lock()
		defer outMu.Unlock()
		if nw == nil {
			nw = cmdutil.NewNDJSONWriter(w)
		}
		emitted = true
		if err := nw.Write(line); err != nil {
			cancel() // client hung up: abort every worker stream
			return err
		}
		return nil
	}

	groups := c.ring.Workers()
	gerrs := make([]error, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gerrs[g] = c.probeGroup(fctx, g, body, emit)
			if gerrs[g] != nil {
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client is gone
	}
	var ge GatherError
	for g, err := range gerrs {
		if err != nil && !errors.Is(err, context.Canceled) {
			ge.Failures = append(ge.Failures, GatherFailure{Group: g, Addr: strings.Join(c.groupAddrs(g), ","), Err: err})
		}
	}
	if len(ge.Failures) == 0 {
		outMu.Lock()
		if nw == nil {
			cmdutil.NewNDJSONWriter(w) // headers for an empty (but successful) stream
		}
		outMu.Unlock()
		return
	}
	if !emitted {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		_ = json.NewEncoder(w).Encode(ge.body())
		return
	}
	// Lines already reached the client; kill the connection so the
	// truncation is unmistakable.
	panic(http.ErrAbortHandler)
}

// probeGroup streams one group's probe matches to emit, failing over to the
// next replica as long as nothing from this group has been forwarded yet.
func (c *Coordinator) probeGroup(ctx context.Context, g int, body []byte, emit func(ProbeMatch) error) error {
	cands := c.readCandidates(g)
	if len(cands) == 0 {
		return errors.New("no live replica")
	}
	var errs []error
	for _, ref := range cands {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		forwarded, err := c.probeReplica(ctx, ref, g, body, emit)
		if err == nil {
			return nil
		}
		if forwarded > 0 || ctx.Err() != nil {
			// Mid-stream failure after lines went out (or the whole request
			// is being torn down): no safe failover.
			return err
		}
		c.markDown(ref, err)
		errs = append(errs, fmt.Errorf("%s: %w", ref.addr, err))
	}
	return errors.Join(errs...)
}

// probeReplica runs one group probe against one replica, forwarding each
// NDJSON line through emit; it reports how many lines were forwarded.
func (c *Coordinator) probeReplica(ctx context.Context, ref *workerRef, g int, body []byte, emit func(ProbeMatch) error) (int, error) {
	url := fmt.Sprintf("%s/probe?group=%d", ref.addr, g)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(EpochHeader, strconv.FormatInt(c.epoch.Load(), 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	forwarded := 0
	err = cmdutil.DecodeNDJSON(resp.Body, func(m ProbeMatch) error {
		if err := emit(m); err != nil {
			return err
		}
		forwarded++
		return nil
	})
	return forwarded, err
}

// --- sequenced mutations ---

// insertRecords allocates stable IDs, partitions the batch by owning group
// and applies each partition to every live replica of its group under the
// group's next sequence number. IDs are allocated exactly as a single-node
// index would (sequentially, in request order) — the cornerstone of
// bit-identical placement and results.
func (c *Coordinator) insertRecords(ctx context.Context, records []string) ([]int, error) {
	if len(records) == 0 {
		return []int{}, nil
	}
	c.mu.Lock()
	start := c.nextID
	c.nextID += len(records)
	c.mu.Unlock()
	ids := make([]int, len(records))
	type part struct {
		ids  []int
		recs []string
	}
	parts := map[int]*part{}
	for i, rec := range records {
		id := start + i
		ids[i] = id
		g := c.ring.Owner(id)
		p := parts[g]
		if p == nil {
			p = &part{}
			parts[g] = p
		}
		p.ids = append(p.ids, id)
		p.recs = append(p.recs, rec)
	}
	var ge GatherError
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g, p := range parts {
		wg.Add(1)
		go func(g int, p *part) {
			defer wg.Done()
			_, err := c.applyGroup(ctx, g, func(seq uint64) ApplyRequest {
				return ApplyRequest{Epoch: c.epoch.Load(), Group: g, Seq: seq, IDs: p.ids, Records: p.recs}
			})
			if err != nil {
				mu.Lock()
				ge.Failures = append(ge.Failures, GatherFailure{Group: g, Addr: strings.Join(c.groupAddrs(g), ","), Err: err})
				mu.Unlock()
			}
		}(g, p)
	}
	wg.Wait()
	if len(ge.Failures) > 0 {
		return nil, &ge
	}
	return ids, nil
}

// applyGroup delivers one sequenced mutation to every live replica of a
// group. The lane mutex is held across the whole fan-out so sequences reach
// replicas in order; the write succeeds if at least one replica applied it
// (replicas that failed are taken out — they may have missed the write and
// must not serve), and the sequence advances only on success.
func (c *Coordinator) applyGroup(ctx context.Context, g int, mk func(seq uint64) ApplyRequest) (*ApplyResponse, error) {
	lane := c.lanes[g]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	seq := lane.seq + 1
	req := mk(seq)

	refs := c.refs()
	reps := c.ring.GroupReplicas(g)
	type res struct {
		resp *ApplyResponse
		err  error
		ref  *workerRef
	}
	results := make([]res, 0, len(reps))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, wi := range reps {
		ref := refs[wi]
		if ref.state.Load() != workerReady {
			continue
		}
		wg.Add(1)
		go func(ref *workerRef) {
			defer wg.Done()
			var ar ApplyResponse
			err := c.postJSON(ctx, ref.addr+"/cluster/apply", req, &ar)
			mu.Lock()
			results = append(results, res{resp: &ar, err: err, ref: ref})
			mu.Unlock()
		}(ref)
	}
	wg.Wait()
	var first *ApplyResponse
	var errs []error
	for _, r := range results {
		if r.err != nil {
			c.markDown(r.ref, r.err)
			errs = append(errs, fmt.Errorf("%s: %w", r.ref.addr, r.err))
			continue
		}
		if first == nil {
			first = r.resp
		}
	}
	if first == nil {
		if len(errs) == 0 {
			return nil, errors.New("no live replica")
		}
		return nil, errors.Join(errs...)
	}
	lane.seq = seq
	return first, nil
}

// postJSON posts v and decodes the response into out (when non-nil),
// retrying nothing: callers own their retry/failover policy. Non-2xx is an
// error carrying the response body.
func (c *Coordinator) postJSON(ctx context.Context, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Coordinator) requireReadyMutation(w http.ResponseWriter) bool {
	if !c.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "cluster is not bootstrapped", Code: "not_ready"})
		return false
	}
	return true
}

func (c *Coordinator) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req InsertRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !c.requireReadyMutation(w) {
		return
	}
	c.mutMu.RLock()
	defer c.mutMu.RUnlock()
	ids, err := c.insertRecords(r.Context(), req.Records)
	if err != nil {
		c.writeGather(w, err)
		return
	}
	writeJSON(w, InsertResponse{IDs: ids})
}

// removeByIDs routes a removal set to the owning groups and maps the
// per-group answers back to request positions.
func (c *Coordinator) removeByIDs(ctx context.Context, ids []int) ([]bool, error) {
	out := make([]bool, len(ids))
	type part struct {
		ids []int
		at  []int
	}
	parts := map[int]*part{}
	for i, id := range ids {
		g := c.ring.Owner(id)
		p := parts[g]
		if p == nil {
			p = &part{}
			parts[g] = p
		}
		p.ids = append(p.ids, id)
		p.at = append(p.at, i)
	}
	var ge GatherError
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g, p := range parts {
		wg.Add(1)
		go func(g int, p *part) {
			defer wg.Done()
			resp, err := c.applyGroup(ctx, g, func(seq uint64) ApplyRequest {
				return ApplyRequest{Epoch: c.epoch.Load(), Group: g, Seq: seq, Removes: p.ids}
			})
			if err != nil {
				mu.Lock()
				ge.Failures = append(ge.Failures, GatherFailure{Group: g, Addr: strings.Join(c.groupAddrs(g), ","), Err: err})
				mu.Unlock()
				return
			}
			for i, ok := range resp.Removed {
				out[p.at[i]] = ok
			}
		}(g, p)
	}
	wg.Wait()
	if len(ge.Failures) > 0 {
		return nil, &ge
	}
	return out, nil
}

func (c *Coordinator) handleRemove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RemoveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !c.requireReadyMutation(w) {
		return
	}
	c.mutMu.RLock()
	defer c.mutMu.RUnlock()
	removed, err := c.removeByIDs(r.Context(), []int{req.ID})
	if err != nil {
		c.writeGather(w, err)
		return
	}
	writeJSON(w, RemoveResponse{Removed: removed[0]})
}

func (c *Coordinator) handleRemoveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RemoveBatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !c.requireReadyMutation(w) {
		return
	}
	c.mutMu.RLock()
	defer c.mutMu.RUnlock()
	removed, err := c.removeByIDs(r.Context(), req.IDs)
	if err != nil {
		c.writeGather(w, err)
		return
	}
	if removed == nil {
		removed = []bool{}
	}
	count := 0
	for _, ok := range removed {
		if ok {
			count++
		}
	}
	writeJSON(w, RemoveBatchResponse{Removed: removed, RemovedCount: count})
}

// writeGather maps a mutation failure to HTTP: a GatherError (every replica
// of some group down) is 503 with the structured failure list.
func (c *Coordinator) writeGather(w http.ResponseWriter, err error) {
	var ge *GatherError
	if errors.As(err, &ge) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(ge.body())
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// --- the order-sync protocol ---

// BumpEpoch runs a global re-finalize as a two-phase epoch bump. Mutations
// are blocked for the duration (mutMu held exclusively); reads never are —
// workers serve from pre-adoption snapshots while their group indexes
// rebuild, and requests stamped with either the old or the prepared epoch
// are accepted throughout.
//
// Prepare: the first ready worker is elected builder; it collects one
// key-frequency table per group (one live replica each — groups partition
// the records, so the tables sum to the global document frequencies),
// merges them into the next frozen order, and every ready worker adopts it,
// one group index at a time (rolling rebuilds). Commit: the coordinator
// flips its epoch — the point of no return; every query from here on is
// stamped with the new epoch — and tells the workers to flip theirs. A
// worker that fails either phase is marked down: its epoch no longer
// matches, so the stamp check fences it out of serving until it is resynced
// (operator intervention; automatic resync is future work).
func (c *Coordinator) BumpEpoch(reason string) error {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	start := time.Now()
	cur := c.epoch.Load()
	next := cur + 1

	refs := c.refs()
	var ready []*workerRef
	for _, ref := range refs {
		if ref.state.Load() == workerReady {
			ready = append(ready, ref)
		}
	}
	if len(ready) == 0 {
		return errors.New("epoch bump: no ready workers")
	}
	builder := ready[0]
	var sources []FreqSource
	for g := 0; g < c.ring.Workers(); g++ {
		var addr string
		for _, wi := range c.ring.GroupReplicas(g) {
			if refs[wi].state.Load() == workerReady {
				addr = refs[wi].addr
				break
			}
		}
		if addr == "" {
			return fmt.Errorf("epoch bump: no live replica for group %d", g)
		}
		sources = append(sources, FreqSource{Group: g, Addr: addr})
	}

	ctx := context.Background()
	var payload OrderPayload
	if err := c.postJSON(ctx, builder.addr+"/cluster/build-order", BuildOrderRequest{Epoch: next, Sources: sources}, &payload); err != nil {
		return fmt.Errorf("epoch bump: build order on %s: %w", builder.addr, err)
	}
	payload.Epoch = next

	// Prepare: rolling adoption, worker by worker (each worker rolls its own
	// groups); reads keep flowing the whole time.
	adopted := ready[:0]
	for _, ref := range ready {
		if err := c.postJSON(ctx, ref.addr+"/cluster/adopt", payload, nil); err != nil {
			c.markDown(ref, fmt.Errorf("adopt epoch %d: %w", next, err))
			continue
		}
		adopted = append(adopted, ref)
	}
	if len(adopted) == 0 {
		return errors.New("epoch bump: no worker adopted the order")
	}

	// Commit.
	c.epoch.Store(next)
	for _, ref := range adopted {
		if err := c.postJSON(ctx, ref.addr+"/cluster/commit", CommitRequest{Epoch: next}, nil); err != nil {
			c.markDown(ref, fmt.Errorf("commit epoch %d: %w", next, err))
		}
	}
	c.bumps.Add(1)
	c.logf("epoch %d -> %d (%s): %d keys frozen, %d workers, %v",
		cur, next, reason, len(payload.Order.Keys), len(adopted), time.Since(start).Round(time.Millisecond))
	return nil
}

func (c *Coordinator) handleBump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !c.requireReadyMutation(w) {
		return
	}
	if err := c.BumpEpoch("manual"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int64{"epoch": c.epoch.Load()})
}

// --- stats ---

// CoordStats is the coordinator's /stats body.
type CoordStats struct {
	Ready    bool          `json:"ready"`
	Epoch    int64         `json:"epoch"`
	Groups   int           `json:"groups"`
	Replicas int           `json:"replicas"`
	NextID   int           `json:"next_id"`
	Queries  int64         `json:"queries"`
	Bumps    int64         `json:"epoch_bumps"`
	Workers  []WorkerState `json:"workers"`
	// MergeMsP50/95/99 are percentiles of recent whole-request
	// gather+merge wall times for scatter-gather queries, milliseconds.
	MergeMsP50 float64 `json:"merge_ms_p50"`
	MergeMsP95 float64 `json:"merge_ms_p95"`
	MergeMsP99 float64 `json:"merge_ms_p99"`
}

// WorkerState is one worker's row in CoordStats.
type WorkerState struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Epoch       int64  `json:"epoch"`
	FrozenKeys  int    `json:"frozen_keys"`
	DynamicKeys int    `json:"dynamic_keys"`
}

// Stats assembles the coordinator's current state.
func (c *Coordinator) Stats() CoordStats {
	st := CoordStats{Ready: c.ready.Load(), Epoch: c.epoch.Load(), Queries: c.queries.Load(), Bumps: c.bumps.Load()}
	c.mu.Lock()
	st.NextID = c.nextID
	ring := c.ring
	refs := append([]*workerRef(nil), c.workers...)
	c.mu.Unlock()
	if ring != nil {
		st.Groups = ring.Workers()
		st.Replicas = ring.Replicas()
	}
	for _, ref := range refs {
		state := "joining"
		switch ref.state.Load() {
		case workerReady:
			state = "ready"
		case workerDown:
			state = "down"
		}
		ref.hbMu.Lock()
		hb := ref.hb
		ref.hbMu.Unlock()
		st.Workers = append(st.Workers, WorkerState{
			Addr: ref.addr, State: state, Epoch: hb.Epoch,
			FrozenKeys: hb.FrozenKeys, DynamicKeys: hb.DynamicKeys,
		})
	}
	c.mergeMu.Lock()
	if len(c.mergeMs) > 0 {
		ps := metrics.Percentiles(c.mergeMs, 50, 95, 99)
		st.MergeMsP50, st.MergeMsP95, st.MergeMsP99 = ps[0], ps[1], ps[2]
	}
	c.mergeMu.Unlock()
	return st
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, c.Stats())
}
