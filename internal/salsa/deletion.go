package salsa

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// This file is the sided reverse of the arrival repair: edge deletions for
// the alternating SALSA walks. Removing one copy of (u, v) with pre-removal
// multiplicity c perturbs stored steps on both sides of the bipartite view:
//
//   - every stored *forward* step u -> v used the removed copy with
//     probability 1/c; a captured step keeps its prefix, re-steps to a
//     uniform surviving out-neighbor of u (no reset coin — the captured step
//     had already passed its coin) and continues with a fresh alternating
//     tail (backward next). With no surviving out-edge the walk terminates
//     at u forward-pending — the forward revival law run in reverse, and a
//     later first out-edge revives it under the usual 1-eps coin.
//   - every stored *backward* step v -> u used the removed copy with
//     probability 1/c; a captured step re-steps to a uniform surviving
//     in-neighbor of v and continues forward-next. Backward steps carry no
//     reset coin at all, so with no surviving in-edge the walk terminates at
//     v backward-pending deterministically — the mirror of reviveBackward's
//     coin-free law.
//
// The backward phase excludes positions the forward phase just regenerated
// (they were sampled on the post-removal graph), reusing the arrival path's
// touched-set mechanism. As on the arrival path, within one segment and one
// phase the first captured step wins and later candidates consume no
// randomness. Deletions have no skip coin and leave the arrival
// counters (and SlowNoops == 0) untouched.

// ApplyDeletion consumes one edge deletion: it removes one copy of the edge
// from the social store and repairs the stored walks whose forward steps
// traversed it from the source or whose backward steps traversed it from the
// target. Deleting an edge not in the graph is a counted no-op. Always
// serialized; use ApplyDeletions or ApplyEvents with UpdateWorkers for
// concurrent consumption.
func (m *Maintainer) ApplyDeletion(ed graph.Edge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyOneDel(ed, m.serial)
}

// ApplyDeletions consumes a batch of deletions under the same
// serialized-vs-parallel regime as ApplyEdges.
func (m *Maintainer) ApplyDeletions(edges []graph.Edge) {
	if m.cfg.UpdateWorkers > 1 {
		m.eventsParallel(len(edges), m.cfg.UpdateWorkers, func(i int, w *updater) {
			m.applyOneDel(edges[i], w)
		})
		m.sweepStragglers(edges)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ed := range edges {
		m.applyOneDel(ed, m.serial)
	}
}

// ApplyEvents consumes a mixed churn stream of arrivals and deletions. With
// UpdateWorkers <= 1 events are applied in order by one goroutine (fully
// reproducible per seed); with more workers they are claimed from a shared
// cursor and applied concurrently, reproducible in distribution. A deletion
// racing the arrival of the same edge on another worker may observe the edge
// as missing and count a DelMiss, exactly as it would if the stream had been
// reordered.
func (m *Maintainer) ApplyEvents(events []graph.Event) {
	if m.cfg.UpdateWorkers > 1 {
		m.eventsParallel(len(events), m.cfg.UpdateWorkers, func(i int, w *updater) {
			if events[i].Del {
				m.applyOneDel(events[i].Edge, w)
			} else {
				m.applyOne(events[i].Edge, w)
			}
		})
		var dels []graph.Edge
		for _, ev := range events {
			if ev.Del {
				dels = append(dels, ev.Edge)
			}
		}
		m.sweepStragglers(dels)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ev := range events {
		if ev.Del {
			m.applyOneDel(ev.Edge, m.serial)
		} else {
			m.applyOne(ev.Edge, m.serial)
		}
	}
}

// eventsParallel runs apply(i) for i in [0, n) over the worker pool, each
// worker with its own updater seeded like applyParallel's.
func (m *Maintainer) eventsParallel(n, workers int, apply func(int, *updater)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			w := newUpdater(rand.New(rand.NewPCG(m.cfg.Seed, 0x5a15a0000+uint64(wk))))
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				apply(i, w)
			}
		}(wk)
	}
	wg.Wait()
}

// sweepStragglers is the serialized pass after a parallel deletion batch. A
// tail regenerated by a concurrent repair can sample a deleted edge just
// before it leaves the graph and index the step just after the deleting
// worker's scans, stranding a stored forward or backward step through a
// missing edge. For each distinct deleted edge still absent, re-running both
// sided repairs with pre-removal multiplicity 1 captures any such straggler
// deterministically; an edge re-present at sweep time (a surviving
// multi-edge copy, or re-added by an interleaved arrival) is skipped — its
// stored steps are legal. The graph is quiescent under m.mu, so fresh tails
// cannot strand new steps, and the missing-edge-step invariant holds
// whenever a batch call returns. No observer fires: the sweep touches only
// the store, which the serving tier already tracks through its per-stripe
// epochs.
func (m *Maintainer) sweepStragglers(dels []graph.Edge) {
	if len(dels) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[graph.Edge]struct{}, len(dels))
	for _, ed := range dels {
		if _, dup := seen[ed]; dup {
			continue
		}
		seen[ed] = struct{}{}
		u, v := ed.From, ed.To
		li, lj := m.endMu.LockPair(2*uint64(u), 2*uint64(v)+1)
		if m.soc.CountEdges(u, v) == 0 {
			m.serial.touched.reset()
			m.unrouteForward(u, v, 1, m.soc.OutDegree(u), m.serial)
			m.unrouteBackward(v, u, 1, m.soc.InDegree(v), m.serial)
		}
		m.endMu.UnlockPair(li, lj)
	}
}

// applyOneDel removes one copy of (u, v) and runs both unroute phases under
// the same endpoint stripe pair the arrival path holds, so the degree and
// multiplicity reads stay exact against concurrent mutations sharing an
// endpoint.
func (m *Maintainer) applyOneDel(ed graph.Edge, w *updater) {
	m.cnt.deletions.Add(1)
	u, v := ed.From, ed.To
	li, lj := m.endMu.LockPair(2*uint64(u), 2*uint64(v)+1)
	if !m.soc.RemoveEdge(u, v) {
		m.endMu.UnlockPair(li, lj)
		m.cnt.delMisses.Add(1)
		return
	}
	// The edge is removed before the repair so fresh tails sample the new
	// graph; the pre-removal multiplicity is the surviving count plus one.
	c := m.soc.CountEdges(u, v) + 1
	dout := m.soc.OutDegree(u)
	din := m.soc.InDegree(v)
	w.touched.reset()
	// Forward phase: stored forward steps u -> v lost one of their c slots.
	m.unrouteForward(u, v, c, dout, w)
	// Backward phase: stored backward steps v -> u lost one of their c slots.
	// Runs after the forward phase so it can exclude the positions that phase
	// just regenerated (they already sampled the post-removal graph).
	m.unrouteBackward(v, u, c, din, w)
	m.endMu.UnlockPair(li, lj)
	// Bump-after ordering, as on the arrival path: the observer fires only
	// once every store and graph effect of the deletion is visible.
	if m.arrivalObs != nil {
		m.arrivalObs(ed)
	}
	m.maybeCompact()
}

// unrouteForward runs the reverse reroute over every stored forward step
// u -> v. No skip coin and no retry loop: each candidate flips its own 1/c
// coin (none when c == 1 — the last copy captures deterministically).
func (m *Maintainer) unrouteForward(u, v graph.NodeID, c, d int, w *updater) {
	if m.walks.PendingCandidates(u, walkstore.SideForward) <= 0 {
		return
	}
	hits, held := m.freeze(u, walkstore.SideForward, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	rerouted, truncated := m.unrouteForwardPass(hits, u, v, c, d, w)
	m.cnt.delRerouted.Add(rerouted)
	m.cnt.delTruncated.Add(truncated)
}

// unrouteForwardPass walks the frozen forward-pending hits of u looking for
// stored forward steps u -> v, first captured step per segment wins: a hit
// is a candidate iff it is non-terminal and its next node is v (the source
// already guarantees node and parity). Superseded candidates after a
// capture consume no randomness.
func (m *Maintainer) unrouteForwardPass(hits []walkstore.PosHit, u, v graph.NodeID, c, d int, w *updater) (rerouted, truncated int64) {
	inv := 1.0 / float64(c)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		pos := -1
		for _, h := range hits[i:j] {
			hp := int(h.Pos)
			if hp >= len(p)-1 || p[hp+1] != v {
				continue // terminal, or a forward step to some other neighbor
			}
			if pos >= 0 {
				continue // superseded by this segment's capture; no coin
			}
			if c == 1 || w.rng.Float64() < inv {
				pos = hp
			}
		}
		i = j
		if pos < 0 {
			continue
		}
		if m.resampleForward(id, pos+1, u, d, w) {
			rerouted++
		} else {
			truncated++
		}
	}
	return rerouted, truncated
}

// unrouteBackward runs the reverse reroute over every stored backward step
// v -> u, excluding positions the forward phase regenerated this deletion.
func (m *Maintainer) unrouteBackward(v, u graph.NodeID, c, d int, w *updater) {
	if m.walks.PendingCandidates(v, walkstore.SideBackward) <= 0 {
		return
	}
	hits, held := m.freeze(v, walkstore.SideBackward, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	rerouted, truncated := m.unrouteBackwardPass(hits, v, u, c, d, w)
	m.cnt.delRerouted.Add(rerouted)
	m.cnt.delTruncated.Add(truncated)
}

// unrouteBackwardPass is unrouteForwardPass's mirror over the frozen
// backward-pending hits of v: candidates are stored backward steps v -> u,
// excluding positions the forward phase regenerated this deletion.
func (m *Maintainer) unrouteBackwardPass(hits []walkstore.PosHit, v, u graph.NodeID, c, d int, w *updater) (rerouted, truncated int64) {
	inv := 1.0 / float64(c)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		end := len(p) - 1 // candidates are non-terminal visits
		if keep, ok := w.touched.get(id); ok && keep < end {
			end = keep // positions >= keep are fresh
		}
		pos := -1
		for _, h := range hits[i:j] {
			hp := int(h.Pos)
			if hp >= end || p[hp+1] != u {
				continue // fresh/terminal, or a backward step to another in-neighbor
			}
			if pos >= 0 {
				continue // superseded slot; no coin
			}
			if c == 1 || w.rng.Float64() < inv {
				pos = hp
			}
		}
		i = j
		if pos < 0 {
			continue
		}
		if m.resampleBackward(id, pos+1, v, d, w) {
			rerouted++
		} else {
			truncated++
		}
	}
	return rerouted, truncated
}

// resampleForward regenerates a captured forward step: truncate segment id
// to keep nodes, re-step to a uniform surviving out-neighbor of u (no reset
// coin) and continue backward-next. With no survivors the walk terminates at
// u forward-pending. Marks the segment touched either way so the backward
// phase skips its fresh positions. Reports whether a re-sampled tail was
// written (false means truncation).
func (m *Maintainer) resampleForward(id walkstore.SegmentID, keep int, u graph.NodeID, d int, w *updater) bool {
	defer w.touched.set(id, keep)
	if d > 0 {
		to, ok := m.soc.RandomOutNeighbor(u, w.rng)
		if ok {
			m.redirect(id, keep, to, walk.Backward, w)
			return true
		}
		// Unreachable under the endpoint stripes (d was read under the same
		// locks); fall through to truncation for safety.
	}
	m.truncate(id, keep, w)
	return false
}

// resampleBackward is resampleForward's mirror for a captured backward step
// out of v: re-step to a uniform surviving in-neighbor of v, continue
// forward-next, or terminate at v backward-pending (deterministically — the
// backward law has no coin). The backward phase runs last, so no touched
// marking is needed.
func (m *Maintainer) resampleBackward(id walkstore.SegmentID, keep int, v graph.NodeID, d int, w *updater) bool {
	if d > 0 {
		to, ok := m.soc.RandomInNeighbor(v, w.rng)
		if ok {
			m.redirect(id, keep, to, walk.Forward, w)
			return true
		}
	}
	m.truncate(id, keep, w)
	return false
}
