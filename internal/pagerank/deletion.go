package pagerank

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

// This file is the reverse of the arrival repair: edge deletions. The paper
// only handles arrivals; the deletion rule below is the unique one that keeps
// the stored segments distributed as fresh walks on the post-removal graph.
//
// Remove one copy of (u, v) whose pre-removal multiplicity was c, leaving u
// with d surviving out-edges. A stored step from u to v chose uniformly among
// u's old out-edge multiset, so conditioned on landing on v it used the
// removed copy with probability 1/c (deterministically when the last copy
// goes). Such a step must be re-sampled: keep the prefix, step to a uniform
// survivor — no reset coin, the original step had already passed its coin —
// and continue with a fresh geometric tail on the new graph. Steps to v
// through a surviving copy, and steps to other neighbors, stay put:
// conditioned on not using the removed copy they are already uniform over
// the survivors. When d == 0 the re-sampled step has nowhere to go and the
// walk terminates at u — the revival law run in reverse; memorylessness makes
// the truncated terminal indistinguishable from a fresh walk dying at a
// dangling node, so a later first arrival at u revives it under the usual
// 1-eps law.
//
// Within one segment the first re-sampled step wins — everything after it is
// regenerated — so later candidate steps of the same segment are superseded
// and consume no randomness. There is no
// skip coin: no stored counter tracks steps through one specific edge, so a
// deletion always scans its O(hits) enumeration and the SlowNoops == 0
// invariant is untouched by deletions.

// ApplyDeletion consumes one edge deletion: it removes one copy of the edge
// from the social store and repairs every stored walk that traversed it.
// Deleting an edge not in the graph is a counted no-op. Always serialized;
// use ApplyDeletions or ApplyEvents with UpdateWorkers for concurrent
// consumption.
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
			w := newUpdater(rand.New(rand.NewPCG(m.cfg.Seed, 0x9a6e0000+uint64(wk))))
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
// worker's scan, stranding a stored step through a missing edge. For each
// distinct deleted edge still absent, re-running the repair with pre-removal
// multiplicity 1 captures any such straggler deterministically; an edge
// re-present at sweep time (a surviving multi-edge copy, or re-added by an
// interleaved arrival) is skipped — its stored steps are legal. The graph is
// quiescent under m.mu, so fresh tails cannot strand new steps, and the
// missing-edge-step invariant holds whenever a batch call returns.
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
		lk := m.srcMu.Of(uint64(u))
		lk.Lock()
		if m.soc.CountEdges(u, v) == 0 {
			m.unroute(u, v, 1, m.soc.OutDegree(u), m.serial)
		}
		lk.Unlock()
	}
}

// applyOneDel removes one copy of (u, v) and repairs the stored walks under
// u's source stripe — the same lock the arrival path holds, so u's
// out-degree and multiplicity reads are exact against concurrent arrivals
// from u.
func (m *Maintainer) applyOneDel(ed graph.Edge, w *updater) {
	m.cnt.deletions.Add(1)
	u, v := ed.From, ed.To
	lk := m.srcMu.Of(uint64(u))
	lk.Lock()
	if !m.soc.RemoveEdge(u, v) {
		lk.Unlock()
		m.cnt.delMisses.Add(1)
		return
	}
	// The edge is removed before the repair so fresh tails sample the new
	// graph; the pre-removal multiplicity is the surviving count plus one.
	c := m.soc.CountEdges(u, v) + 1
	d := m.soc.OutDegree(u)
	m.unroute(u, v, c, d, w)
	lk.Unlock()
	m.maybeCompact()
}

// unroute runs the reverse reroute over every stored step u -> v. No skip
// coin and no retry loop: there is no pre-sampled first-success promise to
// keep, each candidate flips its own 1/c coin (none when c == 1 — the last
// copy captures every candidate deterministically).
func (m *Maintainer) unroute(u, v graph.NodeID, c, d int, w *updater) {
	if m.walks.Candidates(u) <= 0 {
		return // no stored non-terminal visit can step through the edge
	}
	hits, held := m.freeze(u, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	rerouted, truncated := m.unroutePass(hits, v, c, d, w)
	m.cnt.delRerouted.Add(rerouted)
	m.cnt.delTruncated.Add(truncated)
}

// unroutePass walks the frozen hits of u looking for stored steps u -> v,
// first captured step per segment wins: a hit is a candidate iff it is
// non-terminal and its next node is v. Superseded candidates after a
// segment's capture consume no randomness.
func (m *Maintainer) unroutePass(hits []walkstore.PosHit, v graph.NodeID, c, d int, w *updater) (rerouted, truncated int64) {
	inv := 1.0 / float64(c)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		u := p[int(hits[i].Pos)]
		pos := -1
		for _, h := range hits[i:j] {
			hp := int(h.Pos)
			if hp >= len(p)-1 || p[hp+1] != v {
				continue // terminal, or a step to some other neighbor
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
		if m.resample(id, pos+1, u, d, w) {
			rerouted++
		} else {
			truncated++
		}
	}
	return rerouted, truncated
}

// resample regenerates a captured step: truncate segment id to keep nodes,
// step to a uniform surviving out-neighbor of u (no reset coin — the
// captured step had already passed its coin), and continue with a fresh
// geometric tail. With no survivors the walk terminates at u instead (the
// reverse revival); reports whether a re-sampled tail was written (false
// means truncation).
func (m *Maintainer) resample(id walkstore.SegmentID, keep int, u graph.NodeID, d int, w *updater) bool {
	if d > 0 {
		to, ok := m.soc.RandomOutNeighbor(u, w.rng)
		if ok {
			m.redirect(id, keep, to, w)
			return true
		}
		// Unreachable under the source stripe (d was read under the same
		// lock); fall through to truncation for safety.
	}
	m.truncate(id, keep, w)
	return false
}
