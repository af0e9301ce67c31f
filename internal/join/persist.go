package join

import (
	"fmt"
	"sort"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/store"
	"github.com/aujoin/aujoin/internal/strutil"
)

// CaptureSnapshot freezes the index's durable state into a store.Snapshot:
// the shared pebble order, every record (live and tombstoned) with its
// stored signature-ID multiset and prepared-segment metadata, the flat
// tombstone bitmap and the planner's feedback table. The capture runs under
// every shard's writer lock (and the swap mutex), so it is one atomic
// cut across shards — exactly the guarantee Snapshot relaxes for serving —
// and is therefore safe to pair with a WAL: every mutation is either in the
// capture or logged after it, never half of each.
//
// Records are flattened in ascending stable-ID order. That order round-trips
// exactly because shard routing is a pure function of the ID and both the
// original build and every insert append in ascending-ID order, so each
// shard's position order IS its ascending-ID order and re-partitioning the
// flat list recovers it.
func (sx *ShardedIndex) CaptureSnapshot() *store.Snapshot {
	unlock := sx.lockAll()
	defer unlock()
	sx.mu.Lock()
	nextID := sx.nextID
	sx.mu.Unlock()

	snap := &store.Snapshot{
		Theta:         sx.opts.Theta,
		Tau:           sx.tau,
		Method:        uint8(sx.opts.Method),
		Plan:          uint8(sx.opts.Plan),
		ClassicFilter: sx.opts.ClassicFilter,
		Shards:        len(sx.shards),
		NextID:        uint64(nextID),
		Order:         exportOrder(sx.gen.Load().order),
		Planner:       plannerToData(sx.planner.Export()),
	}

	total := 0
	for _, sh := range sx.shards {
		total += len(sh.records)
	}
	type flatRec struct {
		data store.RecordData
		dead bool
	}
	flat := make([]flatRec, 0, total)
	for _, sh := range sx.shards {
		segSigs := sh.segmentSigIDsLocked()
		var ids []uint32
		for pos, rec := range sh.records {
			if pos < sh.base.sigCount() {
				ids = sh.base.appendSigIDsAt(ids[:0], pos)
			} else {
				ids = append(ids[:0], segSigs[pos]...)
			}
			sigIDs := make([]uint32, 0, len(ids))
			for _, id := range ids {
				if id != pebble.NoID {
					sigIDs = append(sigIDs, id)
				}
			}
			segs, minPart := sh.prepared[pos].PersistMeta()
			rd := store.RecordData{
				ID:      uint32(rec.ID),
				Raw:     rec.Raw,
				SigIDs:  sigIDs,
				Segs:    make([]store.SegMeta, len(segs)),
				MinPart: uint32(minPart),
			}
			for i, sg := range segs {
				rd.Segs[i] = store.SegMeta{
					Start:  uint32(sg.Span.Start),
					End:    uint32(sg.Span.End),
					Rule:   sg.Rule,
					Entity: sg.Entity,
				}
			}
			flat = append(flat, flatRec{data: rd, dead: sh.dead[pos>>6]&(1<<(uint(pos)&63)) != 0})
		}
	}
	sort.Slice(flat, func(a, b int) bool { return flat[a].data.ID < flat[b].data.ID })

	snap.Records = make([]store.RecordData, len(flat))
	snap.Dead = make([]uint64, (len(flat)+63)/64)
	for i := range flat {
		snap.Records[i] = flat[i].data
		if flat[i].dead {
			snap.Dead[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return snap
}

// segmentSigIDsLocked recovers the signature-ID multiset of every record
// inserted since the last rebuild from the delta segments' posting lists
// (position -> sorted IDs, one entry per signature pebble). The deltas are
// the only place those signatures survive — the base keeps its sigs slice,
// but inserted records only ever materialized theirs as postings. Sorting
// ascending is safe because posting counts depend only on the multiset, not
// the order IDs were added in.
func (dx *DynamicIndex) segmentSigIDsLocked() map[int][]uint32 {
	if len(dx.segs) == 0 {
		return nil
	}
	out := make(map[int][]uint32)
	for _, seg := range dx.segs {
		seg.inv.Entries(func(id uint32, posts []invindex.Posting) {
			for _, p := range posts {
				for k := 0; k < p.Count; k++ {
					out[p.Record] = append(out[p.Record], id)
				}
			}
		})
	}
	for pos := range out {
		ids := out[pos]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
	return out
}

// exportOrder serializes a pebble order: the frozen prefix in dense-ID order
// with its finalize-time frequencies, then the dynamic region in ID order.
// The caller must hold every writer lock of the indexes interning into the
// order, which freezes the dynamic region for the duration.
func exportOrder(order *pebble.Order) store.OrderData {
	frozen := order.FrozenKeys()
	od := store.OrderData{
		FrozenKeys: make([]string, frozen),
		Freqs:      make([]uint32, frozen),
	}
	for i := 0; i < frozen; i++ {
		k := order.KeyOf(uint32(i))
		od.FrozenKeys[i] = k
		od.Freqs[i] = uint32(order.Frequency(k))
	}
	dyn := order.DynamicCount()
	od.DynamicKeys = make([]string, dyn)
	for i := 0; i < dyn; i++ {
		od.DynamicKeys[i] = order.KeyOf(uint32(frozen + i))
	}
	return od
}

// RestoreShardedIndex reconstructs a sharded dynamic index from a decoded
// snapshot without re-running signature selection or prepared-segment
// enumeration: the stored order is reinstalled verbatim, the stored
// signature-ID multisets rebuild each shard's inverted index, and the
// prepared verification records are rehydrated from their persisted spans
// (only the deterministic per-segment similarity tables are recomputed). The
// result serves bit-identical Query/QueryTopK/Probe answers to the index the
// snapshot was captured from.
//
// The Joiner must be constructed over the same similarity context
// (synonym rules, taxonomy, measure configuration) the original index used —
// the context is the one input the snapshot does not carry.
func (j *Joiner) RestoreShardedIndex(snap *store.Snapshot, dopts DynamicOptions) (*ShardedIndex, error) {
	if snap.NextID > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("join: snapshot next ID %d overflows int", snap.NextID)
	}
	opts := Options{
		Theta:         snap.Theta,
		Tau:           snap.Tau,
		Method:        pebble.Method(snap.Method),
		ClassicFilter: snap.ClassicFilter,
		Plan:          PlanMode(snap.Plan),
	}
	freqs := make([]int, len(snap.Order.Freqs))
	for i, f := range snap.Order.Freqs {
		freqs[i] = int(f)
	}
	order, err := pebble.RestoreOrder(snap.Order.FrozenKeys, freqs, snap.Order.DynamicKeys)
	if err != nil {
		return nil, err
	}

	shards := snap.Shards
	sx := j.newShardedIndex(opts, dopts)
	sx.nextID = int(snap.NextID)
	if st := plannerFromData(snap.Planner); st != nil && sx.planner != nil {
		// A mismatched table (snapshot from another configuration) leaves
		// the planner cold, which is safe: planner state is a warm-start
		// optimization, never a correctness input.
		_ = sx.planner.Import(st)
	}

	// Re-tokenize and rehydrate the prepared records in parallel; both are
	// deterministic functions of the raw text and the similarity context.
	calc := j.calcFor(opts)
	memo := core.NewSegmentMemo()
	n := len(snap.Records)
	records := make([]strutil.Record, n)
	prepared := make([]*core.PreparedRecord, n)
	sigIDs := make([][]uint32, n)
	errs := make([]error, n)
	parallelFor(n, 0, func(i int) {
		rd := &snap.Records[i]
		records[i] = strutil.NewRecord(int(rd.ID), rd.Raw)
		segs := make([]core.SegPersist, len(rd.Segs))
		for k, sg := range rd.Segs {
			segs[k] = core.SegPersist{
				Span:   strutil.Span{Start: int(sg.Start), End: int(sg.End)},
				Rule:   sg.Rule,
				Entity: sg.Entity,
			}
		}
		prepared[i], errs[i] = calc.RestorePrepared(records[i].Tokens, segs, int(rd.MinPart), memo)
		// The index side of the pipeline reads only the signature's pebble
		// IDs (posting lists, count filter, signature length), so the
		// restored index keeps the compact ID form — aliasing the decoded
		// snapshot buffers in place — instead of materializing full pebble
		// structs it would never read.
		sigIDs[i] = rd.SigIDs
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("join: restore record %d: %w", snap.Records[i].ID, err)
		}
	}

	// Re-partition the flat catalog: routing is a pure function of the
	// stable ID, and the flat list is ascending-ID, so each shard receives
	// its records in exactly its original position order.
	type part struct {
		records  []strutil.Record
		sigIDs   [][]uint32
		prepared []*core.PreparedRecord
		deadIDs  []int
	}
	parts := make([]part, shards)
	for i := range records {
		w := shardOf(records[i].ID, shards)
		p := &parts[w]
		p.records = append(p.records, records[i])
		p.sigIDs = append(p.sigIDs, sigIDs[i])
		p.prepared = append(p.prepared, prepared[i])
		if snap.Dead[i>>6]&(1<<(uint(i)&63)) != 0 {
			p.deadIDs = append(p.deadIDs, records[i].ID)
		}
	}

	sx.gen.Store(&orderGen{order: order, sel: pebble.NewSelector(j.gen, order, opts.Theta)})
	sx.shards = make([]*DynamicIndex, shards)
	parallelFor(shards, shards, func(w int) {
		p := &parts[w]
		dx := j.newShard(j.restoreBase(p.records, p.sigIDs, p.prepared, order, opts), dopts, sx.cache)
		// The restored base holds every record — live and dead — at its
		// original position, so the dead bits land on the same positions the
		// original index had them and the posting lists match entry for entry.
		for _, id := range p.deadIDs {
			dx.tombstoneLocked(dx.dead, id, dx.positions[id])
		}
		dx.publishLocked()
		sx.shards[w] = dx
	})
	return sx, nil
}

// restoreBase is buildIndex with signature selection and verification
// preparation replaced by the snapshot's stored artifacts: only the inverted
// index and its hybrid layout are rebuilt (both are deterministic functions
// of the signature multisets, and the layout affects performance only — the
// candidate sets are representation-independent).
func (j *Joiner) restoreBase(records []strutil.Record, sigIDs [][]uint32, prepared []*core.PreparedRecord, order *pebble.Order, opts Options) *Index {
	inv := invindex.New(order.NumKeys())
	// The full signature multiset is in hand before the first Add — count it
	// and reserve every posting list exactly, so rebuilding the index is one
	// arena allocation instead of per-list regrow churn (the dominant cost
	// of a large restore otherwise).
	caps := make([]int32, order.NumKeys())
	for i := range sigIDs {
		for _, id := range sigIDs[i] {
			if int(id) < len(caps) {
				caps[id]++
			}
		}
	}
	inv.Presize(caps)
	totalLen := 0
	for i := range sigIDs {
		inv.Add(i, sigIDs[i])
		totalLen += len(sigIDs[i])
	}
	hybridizeIndex(inv, order, opts)
	ix := &Index{
		joiner:   j,
		opts:     opts,
		tau:      opts.tau(),
		calc:     j.calcFor(opts),
		order:    order,
		sel:      pebble.NewSelector(j.gen, order, opts.Theta),
		records:  records,
		sigIDs:   sigIDs,
		prepared: prepared,
		inv:      inv,
	}
	if len(records) > 0 {
		ix.avgSig = float64(totalLen) / float64(len(records))
	}
	return ix
}

// plannerToData converts an exported planner state into its snapshot form.
func plannerToData(st *planner.State) *store.PlannerData {
	if st == nil {
		return nil
	}
	return &store.PlannerData{
		TauMax:         st.TauMax,
		Method:         uint8(st.Method),
		CandRatio:      st.CandRatio,
		VerifyNs:       st.VerifyNs,
		LatNs:          st.LatNs,
		DPShrink:       st.DPShrink,
		Decisions:      st.Decisions,
		EpochDecisions: st.EpochDecisions,
		ExploreN:       st.ExploreN,
		Plans:          st.Plans,
		Fallbacks:      st.Fallbacks,
		Reanchors:      st.Reanchors,
		Suggested:      st.Suggested,
	}
}

// plannerFromData is the inverse of plannerToData.
func plannerFromData(pd *store.PlannerData) *planner.State {
	if pd == nil {
		return nil
	}
	return &planner.State{
		TauMax:         pd.TauMax,
		Method:         pebble.Method(pd.Method),
		CandRatio:      pd.CandRatio,
		VerifyNs:       pd.VerifyNs,
		LatNs:          pd.LatNs,
		DPShrink:       pd.DPShrink,
		Decisions:      pd.Decisions,
		EpochDecisions: pd.EpochDecisions,
		ExploreN:       pd.ExploreN,
		Plans:          pd.Plans,
		Fallbacks:      pd.Fallbacks,
		Reanchors:      pd.Reanchors,
		Suggested:      pd.Suggested,
	}
}
