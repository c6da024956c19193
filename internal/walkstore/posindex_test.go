package walkstore

import (
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastppr/internal/graph"
)

// brutePending recomputes one (node, dir) pending-position bucket from the
// stored paths: the full-path enumeration the index replaces. It is the
// independent reference for both AppendPendingPositions and
// AppendScannedPositions.
func brutePending(s *Store, live []SegmentID, v graph.NodeID, dir Side) []PosHit {
	var want []PosHit
	ids := append([]SegmentID(nil), live...)
	slices.Sort(ids)
	for _, id := range ids {
		side := s.SideOf(id)
		for pos, x := range s.Path(id) {
			if x != v {
				continue
			}
			if pendingBucket(side, pos) == bucketOf(dir) {
				want = append(want, PosHit{Seg: id, Pos: int32(pos)})
			}
		}
	}
	return want
}

// TestPendingPositionsBruteForce drives randomized Add/AddSided/AddBatch/
// ReplaceTail/Remove churn over a small node space (so buckets grow to
// dozens of entries and shrink back) and
// cross-checks every bucket of every touched node, read from the index and
// from the scanned enumerator, against the full-path enumeration after each
// mutation, with periodic full Validates.
func TestPendingPositionsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	s := New()
	var live []SegmentID
	const nodeSpace = 12 // tiny, so single nodes accumulate many entries
	randPath := func() []graph.NodeID {
		p := make([]graph.NodeID, 1+rng.IntN(6))
		for i := range p {
			p[i] = graph.NodeID(rng.IntN(nodeSpace))
		}
		return p
	}
	sides := []Side{Unsided, SideForward, SideBackward}
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	for op := 0; op < ops; op++ {
		switch k := rng.IntN(10); {
		case k < 3 || len(live) == 0:
			live = append(live, s.AddSided(randPath(), sides[rng.IntN(3)]))
		case k < 4:
			batch := make([][]graph.NodeID, 1+rng.IntN(4))
			for i := range batch {
				batch[i] = randPath()
			}
			live = append(live, s.AddBatchSided(batch, sides[rng.IntN(3)])...)
		case k < 8:
			id := live[rng.IntN(len(live))]
			n := len(s.Path(id))
			var tail []graph.NodeID
			if rng.IntN(4) > 0 {
				tail = randPath()
			}
			s.ReplaceTail(id, 1+rng.IntN(n), tail)
		default:
			i := rng.IntN(len(live))
			s.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for v := 0; v < nodeSpace; v++ {
			for _, dir := range sides {
				want := brutePending(s, live, graph.NodeID(v), dir)
				for _, src := range []struct {
					name string
					read func(graph.NodeID, Side) []PosHit
				}{
					{"index", s.PendingPositions},
					{"scan", func(v graph.NodeID, dir Side) []PosHit { return s.AppendScannedPositions(nil, v, dir) }},
				} {
					if got := src.read(graph.NodeID(v), dir); !slices.Equal(got, want) {
						t.Fatalf("op %d node %d dir %d (%s):\ngot  %v\nwant %v", op, v, dir, src.name, got, want)
					}
				}
			}
		}
		if op%100 == 0 {
			if err := s.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPosIndexHubBoundary pins the multi-run representation: pushing one
// (node, dir) bucket past runCap entries must spread it over several runs
// with identical contents, and removals back down to one entry must keep
// it exact.
func TestPosIndexHubBoundary(t *testing.T) {
	s := New()
	const hub = graph.NodeID(5)
	var ids []SegmentID
	// Each forward-sided path [hub, i] contributes one forward-pending entry
	// (position 0) at hub.
	for i := 0; i < 2*runCap; i++ {
		ids = append(ids, s.AddSided([]graph.NodeID{hub, graph.NodeID(100 + i)}, SideForward))
		hits := s.PendingPositions(hub, SideForward)
		if len(hits) != i+1 {
			t.Fatalf("after %d adds: %d hits", i+1, len(hits))
		}
		if !slices.IsSortedFunc(hits, comparePosHit) {
			t.Fatalf("hits unsorted after %d adds", i+1)
		}
	}
	px := &s.stripe(hub).node(hub).pending[int(SideForward)]
	if len(px.runs) < 2 {
		t.Fatalf("bucket of %d entries spans %d runs, want >= 2", px.n, len(px.runs))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:2*runCap-1] {
		s.Remove(id)
	}
	hits := s.PendingPositions(hub, SideForward)
	if len(hits) != 1 || hits[0].Seg != ids[2*runCap-1] {
		t.Fatalf("after removals: %v", hits)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctSegmentsAndKeepSegments pins the two hit-list helpers the
// repair phases' freeze protocol is built on.
func TestDistinctSegmentsAndKeepSegments(t *testing.T) {
	hits := []PosHit{{2, 0}, {2, 3}, {5, 1}, {9, 0}, {9, 2}, {9, 4}}
	segs := DistinctSegments(nil, hits)
	if !slices.Equal(segs, []SegmentID{2, 5, 9}) {
		t.Fatalf("DistinctSegments=%v", segs)
	}
	kept := KeepSegments(slices.Clone(hits), []SegmentID{2, 9})
	want := []PosHit{{2, 0}, {2, 3}, {9, 0}, {9, 2}, {9, 4}}
	if !slices.Equal(kept, want) {
		t.Fatalf("KeepSegments=%v want %v", kept, want)
	}
	if got := KeepSegments(slices.Clone(hits), nil); len(got) != 0 {
		t.Fatalf("KeepSegments with no segs=%v", got)
	}
}

// TestMutationInFlightCounter pins the mechanism behind Validate's
// ErrConcurrentMutation guard: the observer fires strictly inside a
// mutation's counter phase, so it must always see the in-flight count
// non-zero, and the count must drain back to zero (Validate clean) once the
// mutation returns.
func TestMutationInFlightCounter(t *testing.T) {
	s := New()
	minSeen := int64(99)
	s.SetObserver(func(SegmentID, graph.NodeID, int, int) {
		if n := s.mutators.Load(); n < minSeen {
			minSeen = n
		}
	})
	id := s.Add(path(1, 2, 3))
	s.ReplaceTail(id, 1, path(4))
	s.Remove(id)
	if minSeen < 1 {
		t.Fatalf("observer saw in-flight count %d mid-mutation, want >= 1", minSeen)
	}
	if got := s.mutators.Load(); got != 0 {
		t.Fatalf("in-flight count %d after mutations returned", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIndexReadersAndMutators is the -race stress for the
// pending-position index: writers churn disjoint sided segment sets (the
// external per-segment serialization contract) while readers snapshot index
// buckets — or scan for the same hits with AppendScannedPositions, the
// LegacyScan source — and chase the returned hits into Path reads,
// mimicking the maintainers' probe step racing a parallel storm. Ends in a full Validate
// (including the index cross-check).
func TestConcurrentIndexReadersAndMutators(t *testing.T) {
	const (
		writers   = 4
		nodeSpace = 64
	)
	iters := 400
	if testing.Short() {
		iters = 150
	}
	s := New()
	owned := make([][]SegmentID, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < 30; i++ {
			side := Side(i % 2)
			owned[w] = append(owned[w], s.AddSided(
				[]graph.NodeID{graph.NodeID(w*16 + i%16), graph.NodeID(i % nodeSpace), graph.NodeID(w)}, side))
		}
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 5))
			for it := 0; it < iters; it++ {
				id := owned[w][rng.IntN(len(owned[w]))]
				n := len(s.Path(id))
				tail := make([]graph.NodeID, rng.IntN(4))
				for j := range tail {
					tail[j] = graph.NodeID(rng.IntN(nodeSpace))
				}
				s.ReplaceTail(id, 1+rng.IntN(n), tail)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 6))
			var hits []PosHit
			var segs []SegmentID
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.NodeID(rng.IntN(nodeSpace))
				dir := Side(rng.IntN(2))
				if r == 0 {
					hits = s.AppendScannedPositions(hits, v, dir)
				} else {
					hits = s.AppendPendingPositions(hits, v, dir)
				}
				segs = DistinctSegments(segs, hits)
				for _, id := range segs {
					if len(s.Path(id)) == 0 {
						t.Error("empty path observed")
						return
					}
				}
				_ = s.PendingVisits(v, dir)
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPosIndexMatchesSortedReference drives one posIndex through random
// grow and shrink phases against a plain sorted slice, checking the entries,
// the segment list and the run invariants after every operation. It also
// requires that the run edge cases actually happened: an insert before the
// first run's head, a split of a full run, a removal that empties a middle
// run, and removal down to an empty bucket.
func TestPosIndexMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 0))
	var px posIndex
	var ref []uint64
	var headInsert, split, midEmptied, emptied bool
	check := func(op int) {
		t.Helper()
		if err := validatePosIndex(0, 0, &px, ref); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		hits := px.appendTo(nil)
		if len(hits) != len(ref) {
			t.Fatalf("op %d: appendTo gave %d hits, want %d", op, len(hits), len(ref))
		}
		var segs []SegmentID
		for i, h := range hits {
			if packEntry(h.Seg, h.Pos) != ref[i] {
				t.Fatalf("op %d: hit %d is %v, want %v", op, i, h, unpackEntry(ref[i]))
			}
			if len(segs) == 0 || segs[len(segs)-1] != h.Seg {
				segs = append(segs, h.Seg)
			}
		}
		if got := px.appendSegs(nil); !slices.Equal(got, segs) {
			t.Fatalf("op %d: appendSegs=%v want %v", op, got, segs)
		}
	}
	op := 0
	for phase := 0; phase < 6; phase++ {
		target := 1 + rng.IntN(6*runCap)
		if phase%2 == 1 {
			target = 0
		}
		for len(ref) != target {
			op++
			if len(ref) < target {
				seg, pos := SegmentID(rng.IntN(4*runCap)), int32(rng.IntN(8))
				if rng.IntN(4) == 0 && len(ref) > 0 {
					// A fresh segment: the append fast path.
					seg = unpackEntry(ref[len(ref)-1]).Seg + 1
				}
				e := packEntry(seg, pos)
				i, found := slices.BinarySearch(ref, e)
				if found {
					continue
				}
				if len(px.runs) > 0 && e < px.runs[0][0] {
					headInsert = true
				}
				runs := len(px.runs)
				px.add(seg, pos)
				ref = slices.Insert(ref, i, e)
				if i < len(ref)-1 && len(px.runs) > runs {
					split = true
				}
			} else {
				i := rng.IntN(len(ref))
				h := unpackEntry(ref[i])
				ri := px.find(ref[i])
				if ri > 0 && ri < len(px.runs)-1 && len(px.runs[ri]) == 1 {
					midEmptied = true
				}
				px.remove(h.Seg, h.Pos)
				ref = slices.Delete(ref, i, i+1)
				if len(ref) == 0 {
					emptied = true
				}
			}
			check(op)
		}
	}
	if !headInsert || !split || !midEmptied || !emptied {
		t.Fatalf("edge cases not reached: head insert %v, split %v, middle run emptied %v, emptied %v",
			headInsert, split, midEmptied, emptied)
	}
}

// TestValidateCatchesIndexCorruption corrupts a three-run hub bucket in
// each way the index check must notice and requires Validate to report it.
// The corruptions that change the bucket's count move an entry or a count
// to the node's other sided bucket, so the node's visit total still agrees
// and the bucket check is the one that fires.
func TestValidateCatchesIndexCorruption(t *testing.T) {
	const hub = graph.NodeID(5)
	cases := []struct {
		name    string
		corrupt func(px, other *posIndex)
		want    string
	}{
		{"stale entry", func(px, _ *posIndex) { px.runs[1][3]-- }, "stale entry"},
		{"missing entry", func(px, _ *posIndex) { px.runs[1][3]++ }, "misses entry"},
		{"unsorted within run", func(px, _ *posIndex) {
			px.runs[1][3], px.runs[1][4] = px.runs[1][4], px.runs[1][3]
		}, "not strictly sorted"},
		{"unsorted across runs", func(px, _ *posIndex) {
			px.runs[0], px.runs[1] = px.runs[1], px.runs[0]
		}, "not strictly sorted"},
		{"count mismatch", func(px, other *posIndex) {
			h := unpackEntry(px.runs[2][len(px.runs[2])-1])
			px.remove(h.Seg, h.Pos)
			other.add(h.Seg, h.Pos)
		}, "has 1033 entries, want 1034"},
		{"n off", func(px, other *posIndex) { px.n++; other.n-- }, "runs hold"},
		{"empty run", func(px, _ *posIndex) { px.runs = append(px.runs, nil) }, "run 3 has 0 entries"},
		{"overlong run", func(px, _ *posIndex) {
			px.runs[0] = append(px.runs[0], px.runs[1][0])
			px.runs[1] = px.runs[1][1:]
		}, "run 0 has 513 entries"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			for i := 0; i < 2*runCap+10; i++ {
				s.AddSided([]graph.NodeID{hub, graph.NodeID(100 + i)}, SideForward)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			ns := s.stripe(hub).node(hub)
			px := &ns.pending[int(SideForward)]
			if len(px.runs) != 3 {
				t.Fatalf("bucket spans %d runs, want 3", len(px.runs))
			}
			c.corrupt(px, &ns.pending[int(SideBackward)])
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
