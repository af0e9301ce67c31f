package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cluster"
	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/strutil"
)

// conns is the load generator's read connection count: one per CPU. The
// write stream has one more connection of its own, so that a write held
// up by an index rebuild delays the writes queued behind it (their latency
// counts from their due times) but never takes a read connection.
func conns() int { return runtime.NumCPU() }

// service drives an HTTP deployment (one aujoind, or a coordinator in
// front of workers) with an open-loop mix of /query reads and acknowledged
// writes, and keeps the acknowledged write log for the oracle.
type service struct {
	r       *runner
	base    string
	clients []*http.Client // read connections, one per CPU
	writer  *http.Client   // the write connection

	queries   []string   // read stream, cycled
	inserts   [][]string // insert batches, cycled
	removes   bool       // every fourth write removes a live inserted record
	writeRate float64    // writes per second in every phase

	readBase atomic.Int64 // read-stream position of the current phase's first read
	respB    atomic.Int64 // /query response bytes and count, for the bytes-per-answer figure
	respN    atomic.Int64

	mu      sync.Mutex // guards the write state below
	rng     *rand.Rand
	nextIns int
	live    []int
	log     []replayOp // acknowledged writes, in order
}

func newService(r *runner, base string, queries []string, inserts [][]string, removes bool, writeRate float64) *service {
	s := &service{r: r, base: base, queries: queries, inserts: inserts, removes: removes, writeRate: writeRate,
		rng: rand.New(rand.NewSource(r.seed + 77))}
	// One transport per connection keeps the connection count exact.
	client := func() *http.Client {
		return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	for i := 0; i < conns(); i++ {
		s.clients = append(s.clients, client())
	}
	s.writer = client()
	return s
}

func (s *service) close() {
	for _, c := range append(s.clients, s.writer) {
		c.CloseIdleConnections()
	}
}

// isInsert tells inserts from removes by write-stream position.
func (s *service) isInsert(writeIndex int) bool { return !s.removes || writeIndex%4 != 3 }

// readQuery is the query text of read i of the current phase.
func (s *service) readQuery(i int) string {
	return s.queries[(int(s.readBase.Load())+i)%len(s.queries)]
}

// do sends one scheduled op over client c.
func (s *service) do(c *http.Client, o op, tr *tracer) error {
	if !o.Write {
		sp := tr.start("http.query", 0, s.readBase.Load()+int64(o.Index))
		_, n, err := queryTopK(s.r.ctx, c, s.base, s.readQuery(o.Index), "", nil)
		sp.end()
		s.respB.Add(int64(n))
		s.respN.Add(1)
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.isInsert(o.Index) {
		if len(s.live) == 0 {
			return nil
		}
		k := s.rng.Intn(len(s.live))
		id := s.live[k]
		var resp cluster.RemoveBatchResponse
		if err := postJSON(s.r.ctx, c, s.base+"/remove-batch", cluster.RemoveBatchRequest{IDs: []int{id}}, &resp); err != nil {
			return err
		}
		s.live = append(s.live[:k], s.live[k+1:]...)
		s.log = append(s.log, replayOp{remove: []int{id}})
		return nil
	}
	batch := s.inserts[s.nextIns%len(s.inserts)]
	s.nextIns++
	var resp cluster.InsertResponse
	if err := postJSON(s.r.ctx, c, s.base+"/insert", cluster.InsertRequest{Records: batch}, &resp); err != nil {
		return err
	}
	if len(resp.IDs) != len(batch) {
		return fmt.Errorf("insert of %d records acknowledged %d ids", len(batch), len(resp.IDs))
	}
	s.live = append(s.live, resp.IDs...)
	s.log = append(s.log, replayOp{write: batch})
	return nil
}

// phase runs reads at rate over the read connections and, at the same
// time, writes at the service's write rate over the write connection, for
// dur. Reads with an even index are traced when tr is set.
func (s *service) phase(rate float64, dur time.Duration, tr *tracer) []sample {
	const drain = 2 * time.Second
	var writes []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = runOpenLoop(s.r.ctx, schedule(0, s.writeRate, dur), 1, drain, func(_ int, o op) error {
			return s.do(s.writer, o, nil)
		})
	}()
	reads := runOpenLoop(s.r.ctx, schedule(rate, 0, dur), len(s.clients), drain, func(conn int, o op) error {
		t := tr
		if o.Index%2 == 1 {
			t = nil
		}
		return s.do(s.clients[conn], o, t)
	})
	wg.Wait()
	s.readBase.Add(int64(len(reads)))
	return append(reads, writes...)
}

// capacity estimates the saturated read rate: every connection sends the
// next read as soon as the previous answer arrives, for dur.
func (s *service) capacity(dur time.Duration) float64 {
	var done atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline) && s.r.ctx.Err() == nil; i += len(s.clients) {
				if _, _, err := queryTopK(s.r.ctx, s.clients[c], s.base, s.readQuery(i), "", nil); err == nil {
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	s.readBase.Add(done.Load())
	return float64(done.Load()) / dur.Seconds()
}

// saturatedWindow is how long the saturated read rate is measured.
const saturatedWindow = 8 * time.Second

// ladder finds the highest rung at which reads keep their p90 latency
// within limitMs without a growing backlog, bisecting the rungs between
// half and 105% of the saturated read rate est. Writes pause during the
// ladder, so that whether an index rebuild lands inside a step does not
// decide the step. Transport errors and non-2xx answers in any step count
// as failed operations; requests a failing step never sent do not.
func (s *service) ladder(rungs []float64, est, limitMs float64, step time.Duration) (float64, []rungResult) {
	defer func(w float64) { s.writeRate = w }(s.writeRate)
	s.writeRate = 0
	return searchLadder(rungs, rungBelow(rungs, est/2), rungBelow(rungs, 1.05*est), 6, func(rate float64) (bool, float64) {
		samples := s.phase(rate, step, nil)
		var errs int
		for _, x := range samples {
			if x.Sent && x.Err != nil {
				errs++
			}
		}
		s.r.check(len(samples), errs)
		return stepVerdict(summarize(samples, false), limitMs)
	})
}

// refIndex is the oracle for sampled answers: an in-process index over
// the same catalog with the acknowledged write log replayed in order, plus
// every live record by stable ID, prepared for exact similarity.
type refIndex struct {
	ix   *aujoin.Index
	calc *core.Calculator
	live map[int]*core.PreparedRecord
}

// reference builds the oracle index from the catalog and the write log.
func (s *service) reference(j *aujoin.Joiner, calc *core.Calculator, catalog []string, tau int) refIndex {
	ref := refIndex{calc: calc, live: map[int]*core.PreparedRecord{},
		ix: j.IndexWith(catalog, aujoin.JoinOptions{Theta: theta, Tau: tau, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})}
	for id, rec := range catalog {
		ref.live[id] = calc.Prepare(strutil.Tokenize(rec))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.log {
		if o.write != nil {
			for k, id := range ref.ix.Insert(o.write) {
				ref.live[id] = calc.Prepare(strutil.Tokenize(o.write[k]))
			}
		} else {
			ref.ix.RemoveBatch(o.remove)
			for _, id := range o.remove {
				delete(ref.live, id)
			}
		}
	}
	return ref
}

// judge compares one answer with the oracle. With brute unset, an answer
// equal to the reference index's passes: the reference index runs the
// program's own filter and top-k pruning, so it only picks the answers
// that need the exact check. The exact check, which brute forces, is this:
// an answer is unsound when it returns a record that is not a live match
// of q at the similarity given, and incomplete when its similarities
// differ from the exact top-k over every live record.
func (ref refIndex) judge(q string, got []aujoin.QueryMatch, brute bool) (unsound, incomplete bool) {
	if !brute && sameTopK(got, ref.ix.QueryTopK(q, topK)) {
		return false, false
	}
	pq := ref.calc.Prepare(strutil.Tokenize(q))
	sc := core.NewScratch()
	for _, m := range got {
		pt, ok := ref.live[m.Record]
		if !ok || m.Similarity < theta || math.Abs(m.Similarity-ref.calc.SimilarityPrepared(pq, pt, sc)) > 1e-9 {
			return true, false
		}
	}
	var exact []float64
	for _, pt := range ref.live {
		// The size bound dominates the similarity, so the pairs it skips
		// cannot reach θ.
		if core.SizeRatioUpper(pq, pt) < theta-core.BoundSlack {
			continue
		}
		if sim := ref.calc.SimilarityPrepared(pq, pt, sc); sim >= theta {
			exact = append(exact, sim)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(exact)))
	exact = exact[:min(len(exact), topK)]
	if len(exact) != len(got) {
		return false, true
	}
	for i, m := range got {
		if math.Abs(m.Similarity-exact[i]) > 1e-9 {
			return false, true
		}
	}
	return false, false
}

// sampleQueries draws n queries of the read stream for checkAnswers.
func (s *service) sampleQueries(n int, salt int64) []string {
	rng := rand.New(rand.NewSource(s.r.seed + salt))
	out := make([]string, n)
	for i := range out {
		out[i] = s.queries[rng.Intn(len(s.queries))]
	}
	return out
}

// checkAnswers fetches the /query answer to every query of qs, over the
// read connections in parallel, and compares it with the oracle; the
// first brute of them always get the exact check. Errors and unsound
// answers count as failed operations; incomplete answers count as misses.
func (s *service) checkAnswers(ref refIndex, qs []string, brute int) error {
	var bad, missed atomic.Int64
	var wg sync.WaitGroup
	for c, client := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(qs) && s.r.ctx.Err() == nil; i += len(s.clients) {
				q := qs[i]
				got, _, err := queryTopK(s.r.ctx, client, s.base, q, "", nil)
				unsound, incomplete := false, false
				if err == nil {
					unsound, incomplete = ref.judge(q, got, i < brute)
				}
				switch {
				case err != nil || unsound:
					bad.Add(1)
				case incomplete:
					missed.Add(1)
				default:
					continue
				}
				fmt.Fprintf(os.Stderr, "perfbench: %s/query?q=%q: got %v (err %v), reference index %v\n",
					s.base, q, got, err, ref.ix.QueryTopK(q, topK))
			}
		}()
	}
	wg.Wait()
	if s.r.ctx.Err() != nil {
		return errCancelled
	}
	s.r.check(len(qs), int(bad.Load()))
	s.r.checked += int64(len(qs))
	s.r.misses += missed.Load()
	return nil
}

// queryTopK fetches one /query answer; extra is appended to the query
// string and header is sent with the request. It returns the decoded
// matches and the response size in bytes.
func queryTopK(ctx context.Context, c *http.Client, base, q, extra string, header http.Header) ([]aujoin.QueryMatch, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/query?q="+url.QueryEscape(q)+"&k="+strconv.Itoa(topK)+extra, nil)
	if err != nil {
		return nil, 0, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, len(body), err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(body), fmt.Errorf("/query: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out []aujoin.QueryMatch
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var m aujoin.QueryMatch
		if err := dec.Decode(&m); err != nil {
			return nil, len(body), fmt.Errorf("/query: %w", err)
		}
		out = append(out, m)
	}
	return out, len(body), nil
}

// postJSON posts in as JSON and decodes a 200 answer into out.
func postJSON(ctx context.Context, c *http.Client, u string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getJSON fetches u and decodes its JSON body into out.
func getJSON(ctx context.Context, c *http.Client, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
