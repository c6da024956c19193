package walkstore

import (
	"fmt"
	"sync"

	"fastppr/internal/graph"
)

// Batch is a run of segments for Load, stored flat: segment i has side
// Sides[i] and path length Lens[i], and the paths lie back to back in Nodes.
// Generators write whole chunks of walks into one Batch, so a bulk load
// costs no allocation per path.
type Batch struct {
	Nodes []graph.NodeID
	Lens  []int32
	Sides []Side
}

// EndSegment records Nodes[start:] as the batch's next segment, with the
// given side. A generator appends a walk's nodes to Nodes and then calls
// EndSegment with the length Nodes had before.
func (b *Batch) EndSegment(start int, side Side) {
	b.Lens = append(b.Lens, int32(len(b.Nodes)-start))
	b.Sides = append(b.Sides, side)
}

// Load stores every segment of batches, in order, into an empty store: the
// first segment gets ID 0 and each next one the next ID. The result is the
// store that AddBatchSided calls over the same segments in the same order
// would build, down to owner-list order, index run boundaries, the epoch,
// and the mutation-log and observer calls; it is built in one
// count-then-fill pass instead (see docs/DESIGN.md#11-batching--compaction).
// workers goroutines share the per-node indexing, each owning a fixed set
// of counter stripes, and the result does not depend on their number.
// Every path must be non-empty and every side Unsided, SideForward or
// SideBackward. Load panics on a store that already holds segments. The
// paths are copied.
func (s *Store) Load(batches []Batch, workers int) {
	for _, b := range batches {
		for i, n := range b.Lens {
			if n <= 0 {
				panic("walkstore: empty segment path")
			}
			if b.Sides[i] != Unsided {
				mustDir(b.Sides[i])
			}
		}
	}
	s.load(batches, workers)
}

// load is Load without the input checks. A zero length marks a dead slot:
// it takes an ID but stores no path, which only Restore asks for.
func (s *Store) load(batches []Batch, workers int) {
	var numSegs, numNodes int
	for _, b := range batches {
		if len(b.Lens) != len(b.Sides) {
			panic(fmt.Sprintf("walkstore: batch has %d lengths and %d sides", len(b.Lens), len(b.Sides)))
		}
		n := 0
		for _, l := range b.Lens {
			n += int(l)
		}
		if n != len(b.Nodes) {
			panic(fmt.Sprintf("walkstore: batch lengths sum to %d, want its %d nodes", n, len(b.Nodes)))
		}
		numSegs += len(b.Lens)
		numNodes += n
	}
	if numSegs == 0 {
		return
	}

	// Arena phase: size the arena and segment table once and copy the
	// paths in ID order, journaling each add inside the critical section
	// as AddBatchSided does. The arena gets arenaCap's headroom.
	s.segMu.Lock()
	if len(s.segs) != 0 {
		s.segMu.Unlock()
		panic("walkstore: Load into a store that already holds segments")
	}
	s.mutators.Add(1)
	s.arena = make([]graph.NodeID, 0, arenaCap(int64(numNodes)))
	s.segs = make([]segRef, 0, numSegs)
	for _, b := range batches {
		off := 0
		for i, n := range b.Lens {
			if n == 0 {
				s.segs = append(s.segs, segRef{})
				continue
			}
			id, stored := s.appendSegmentLocked(b.Nodes[off:off+int(n)], b.Sides[i])
			off += int(n)
			if s.mlog != nil {
				s.mlog.LogAdd(id, b.Sides[i], stored)
			}
		}
	}
	segs, arena := s.segs, s.arena
	// Every counter stripe is taken before the segment lock drops, so no
	// reader sees a half-built node and no other mutation can reach a
	// stripe before the load has filled it.
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	s.segMu.Unlock()

	workers = min(max(workers, 1), numStripes)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.indexStripes(segs, arena, w, workers)
		}()
	}
	wg.Wait()
	var total int64
	var sided [2]int64
	for i := range s.stripes {
		st := &s.stripes[i]
		total += st.totalVisits
		sided[0] += st.sidedTotals[0]
		sided[1] += st.sidedTotals[1]
		if st.numNodes != 0 {
			s.touchStripeLocked(st)
		}
		st.mu.Unlock()
	}
	s.bumpTotals(total, sided)
	s.epoch.Add(int64(numSegs))
	s.mutators.Add(-1)
}

// indexStripes builds the per-node state of the counter stripes congruent
// to w modulo workers from the loaded segment table, in two passes over
// it. The count pass creates every node and sets its counters; it also
// counts each owner list (parked in the terminal counters, which the fill
// pass recomputes) and each pending bucket (posIndex.n). Owner lists and
// index runs are then allocated at their final size, and the fill pass
// appends in ascending segment ID, the order incremental adds produce.
// The caller holds the stripes' locks.
func (s *Store) indexStripes(segs []segRef, arena []graph.NodeID, w, workers int) {
	var own [numStripes]bool
	for si := w; si < numStripes; si += workers {
		own[si] = true
	}
	// The stripe shares are summed here and stored once: neighbouring
	// stripes share cache lines, and another worker owns them.
	var shares [numStripes]struct {
		total int64
		sided [2]int64
	}
	for _, r := range segs {
		if !r.live {
			continue
		}
		p := arena[r.off : r.off+int64(r.n)]
		if src := p[0]; own[stripeIndex(src)] {
			ns := s.stripe(src).nodeCreate(src)
			ns.terminals++
			if r.side >= 0 {
				ns.sidedTerminals[r.side]++
			}
		}
		for pos, v := range p {
			if !own[stripeIndex(v)] {
				continue
			}
			si := stripeIndex(v)
			ns := s.stripes[si].nodeCreate(v)
			ns.visits++
			shares[si].total++
			if r.side >= 0 {
				d := r.side.PendingAt(pos)
				ns.sidedVisits[d]++
				shares[si].sided[d]++
			}
			ns.pending[pendingBucket(r.side, pos)].n++
		}
	}

	for si := w; si < numStripes; si += workers {
		st := &s.stripes[si]
		st.totalVisits, st.sidedTotals = shares[si].total, shares[si].sided
		st.each(si, func(_ graph.NodeID, ns *nodeState) {
			if n := ns.terminals; n > 0 {
				ns.owned = make([]SegmentID, 0, n)
			}
			for d, n := range ns.sidedTerminals {
				if n > 0 {
					ns.ownedSided[d] = make([]SegmentID, 0, n)
				}
			}
			ns.terminals, ns.sidedTerminals = 0, [2]int64{}
			for b := range ns.pending {
				ns.pending[b].reserve()
			}
		})
	}

	for i, r := range segs {
		if !r.live {
			continue
		}
		id := SegmentID(i)
		p := arena[r.off : r.off+int64(r.n)]
		if src := p[0]; own[stripeIndex(src)] {
			ns := s.stripe(src).node(src)
			ns.owned = append(ns.owned, id)
			if r.side >= 0 {
				ns.ownedSided[r.side] = append(ns.ownedSided[r.side], id)
			}
		}
		if end := p[len(p)-1]; own[stripeIndex(end)] {
			ns := s.stripe(end).node(end)
			ns.terminals++
			if r.side >= 0 {
				ns.sidedTerminals[r.side.PendingAt(len(p)-1)]++
			}
		}
		for pos, v := range p {
			if !own[stripeIndex(v)] {
				continue
			}
			s.stripe(v).node(v).pending[pendingBucket(r.side, pos)].fill(packEntry(id, int32(pos)))
			if s.observer != nil {
				s.observer(id, v, pos, +1)
			}
		}
	}
}
