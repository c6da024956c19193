package walkstore

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastppr/internal/graph"
)

// tableSeg is one slot of a generated segment table; dead slots exercise
// Restore.
type tableSeg struct {
	side Side
	path []graph.NodeID
	dead bool
}

// hubNode is the node randomTable routes a third of all visits through, so
// its buckets span several index runs.
const hubNode = graph.NodeID(7)

// randomTable draws n segments with mixed sides over dense, sparse and
// negative node IDs, and marks about one slot in eight dead when withDead.
func randomTable(rng *rand.Rand, n int, withDead bool) []tableSeg {
	node := func() graph.NodeID {
		switch k := rng.IntN(12); {
		case k < 4:
			return hubNode
		case k < 9:
			return graph.NodeID(rng.IntN(300))
		case k < 11:
			return graph.NodeID(denseLimit + rng.IntN(40))
		default:
			return graph.NodeID(-1 - rng.IntN(40))
		}
	}
	table := make([]tableSeg, n)
	for i := range table {
		p := make([]graph.NodeID, 1+rng.IntN(9))
		for j := range p {
			p[j] = node()
		}
		table[i] = tableSeg{side: Side(rng.IntN(3) - 1), path: p, dead: withDead && rng.IntN(8) == 0}
	}
	return table
}

// addIncrementally builds table with AddBatchSided calls in ID order, in
// same-side batches of random size. A dead slot is added on its own and
// removed before the next add, which leaves every index run as if it had
// never been added.
func addIncrementally(s *Store, rng *rand.Rand, table []tableSeg) {
	var pending [][]graph.NodeID
	side := Unsided
	flush := func() {
		if len(pending) > 0 {
			s.AddBatchSided(pending, side)
			pending = nil
		}
	}
	for _, ts := range table {
		if ts.dead {
			flush()
			s.Remove(s.AddSided(ts.path, ts.side))
			continue
		}
		if ts.side != side || rng.IntN(16) == 0 {
			flush()
			side = ts.side
		}
		pending = append(pending, ts.path)
	}
	flush()
}

// tableBatches splits a table without dead slots into Load batches at
// random boundaries.
func tableBatches(rng *rand.Rand, table []tableSeg) []Batch {
	var out []Batch
	var b Batch
	for _, ts := range table {
		start := len(b.Nodes)
		b.Nodes = append(b.Nodes, ts.path...)
		b.EndSegment(start, ts.side)
		if rng.IntN(64) == 0 {
			out = append(out, b)
			b = Batch{}
		}
	}
	return append(out, b)
}

// addRecord is one MutationLog.LogAdd call.
type addRecord struct {
	id   SegmentID
	side Side
	path string
}

type addLog struct{ adds []addRecord }

func (l *addLog) LogAdd(id SegmentID, side Side, path []graph.NodeID) {
	l.adds = append(l.adds, addRecord{id: id, side: side, path: fmt.Sprint(path)})
}
func (l *addLog) LogReplaceTail(SegmentID, int, []graph.NodeID) {}
func (l *addLog) LogRemove(SegmentID)                           {}

// visitRecorder collects observer calls; Load fires them from several
// goroutines at once.
type visitRecorder struct {
	mu    sync.Mutex
	calls []string
}

func (r *visitRecorder) observe(seg SegmentID, v graph.NodeID, pos, delta int) {
	r.mu.Lock()
	r.calls = append(r.calls, fmt.Sprint(seg, v, pos, delta))
	r.mu.Unlock()
}

// runLengths returns the run lengths of every non-empty bucket, keyed by
// node and bucket.
func runLengths(s *Store) map[string][]int {
	out := make(map[string][]int)
	for i := range s.stripes {
		s.stripes[i].each(i, func(v graph.NodeID, ns *nodeState) {
			for b := range ns.pending {
				for _, r := range ns.pending[b].runs {
					k := fmt.Sprint(v, "/", b)
					out[k] = append(out[k], len(r))
				}
			}
		})
	}
	return out
}

// requireSameStore checks every per-node read, the bucket run lengths, the
// dump, and Validate on both stores.
func requireSameStore(t *testing.T, got, want *Store, table []tableSeg) {
	t.Helper()
	for name, s := range map[string]*Store{"loaded": got, "incremental": want} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s store fails Validate: %v", name, err)
		}
	}
	gd, err := got.Dump()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := want.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gd, wd) {
		t.Fatalf("dumps differ: epoch %d vs %d, %d vs %d slots", gd.Epoch, wd.Epoch, len(gd.Segs), len(wd.Segs))
	}
	nodes := map[graph.NodeID]bool{}
	for _, ts := range table {
		for _, v := range ts.path {
			nodes[v] = true
		}
	}
	for v := range nodes {
		check := func(what string, g, w any) {
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s(%d) = %v, want %v", what, v, g, w)
			}
		}
		check("OwnedBy", got.OwnedBy(v), want.OwnedBy(v))
		check("Visits", got.Visits(v), want.Visits(v))
		check("Terminals", got.Terminals(v), want.Terminals(v))
		check("PendingPositions unsided", got.PendingPositions(v, Unsided), want.PendingPositions(v, Unsided))
		for _, d := range []Side{SideForward, SideBackward} {
			check("OwnedSided", got.OwnedSided(v, d), want.OwnedSided(v, d))
			check("PendingPositions", got.PendingPositions(v, d), want.PendingPositions(v, d))
			check("PendingVisits", got.PendingVisits(v, d), want.PendingVisits(v, d))
			check("PendingTerminals", got.PendingTerminals(v, d), want.PendingTerminals(v, d))
		}
	}
	gr, wr := runLengths(got), runLengths(want)
	if !reflect.DeepEqual(gr, wr) {
		t.Fatalf("bucket run lengths differ")
	}
	if hub := wr[fmt.Sprint(hubNode, "/", unsidedBucket)]; len(hub) < 3 {
		t.Fatalf("hub bucket spans %d runs, want a bucket above 2*runCap", len(hub))
	}
}

// TestLoadMatchesIncrementalAdds is the loader's equivalence proof: over
// random tables, Load builds the store AddBatchSided calls in ID order
// build, with the same mutation-log records and the same multiset of
// observer calls, for any worker count.
func TestLoadMatchesIncrementalAdds(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(workers)))
				table := randomTable(rng, 3000, false)

				want := New()
				wantLog, wantObs := &addLog{}, &visitRecorder{}
				want.SetMutationLog(wantLog)
				want.SetObserver(wantObs.observe)
				addIncrementally(want, rng, table)

				got := New()
				gotLog, gotObs := &addLog{}, &visitRecorder{}
				got.SetMutationLog(gotLog)
				got.SetObserver(gotObs.observe)
				got.Load(tableBatches(rng, table), workers)

				requireSameStore(t, got, want, table)
				if !reflect.DeepEqual(gotLog.adds, wantLog.adds) {
					t.Fatal("mutation log records differ")
				}
				slices.Sort(gotObs.calls)
				slices.Sort(wantObs.calls)
				if !reflect.DeepEqual(gotObs.calls, wantObs.calls) {
					t.Fatalf("observer calls differ: %d vs %d", len(gotObs.calls), len(wantObs.calls))
				}
			})
		}
	}
}

// TestRestoreMatchesIncrementalAdds runs the same comparison through
// Restore, whose tables keep dead slots.
func TestRestoreMatchesIncrementalAdds(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		table := randomTable(rng, 3000, true)
		want := New()
		addIncrementally(want, rng, table)
		d, err := want.Dump()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Restore(d)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStore(t, got, want, table)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %v, want one mentioning %q", name, r, want)
			}
		}()
		f()
	}
	mustPanic("non-empty store", "already holds segments", func() {
		s := New()
		s.Add([]graph.NodeID{1})
		s.Load([]Batch{{Nodes: []graph.NodeID{2}, Lens: []int32{1}, Sides: []Side{Unsided}}}, 1)
	})
	mustPanic("empty path", "empty segment path", func() {
		New().Load([]Batch{{Lens: []int32{0}, Sides: []Side{Unsided}}}, 1)
	})
	mustPanic("bad side", "invalid direction", func() {
		New().Load([]Batch{{Nodes: []graph.NodeID{2}, Lens: []int32{1}, Sides: []Side{5}}}, 1)
	})
	mustPanic("short nodes", "lengths sum", func() {
		New().Load([]Batch{{Nodes: []graph.NodeID{2}, Lens: []int32{2}, Sides: []Side{Unsided}}}, 1)
	})
}

// TestRestoreRejectsEpochBelowSlots pins the epoch floor: every slot of a
// genuine dump came from an add that advanced the epoch.
func TestRestoreRejectsEpochBelowSlots(t *testing.T) {
	s := New()
	s.AddBatch([][]graph.NodeID{{1, 2}, {2, 3}, {3}})
	d, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	d.Epoch = int64(len(d.Segs)) - 1
	if _, err := Restore(d); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("Restore of a dump at epoch %d with %d slots = %v, want an epoch error", d.Epoch, len(d.Segs), err)
	}
}

func TestValidateCatchesEpochBelowSlots(t *testing.T) {
	s := New()
	s.AddBatch([][]graph.NodeID{{1, 2}, {2, 3}, {3}})
	s.epoch.Store(2)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("Validate at epoch 2 with 3 slots = %v, want an epoch error", err)
	}
}

// TestLoadLeavesArenaHeadroom pins the arena headroom: the first tail
// rewrite after a load, and after a compaction, appends in place instead of
// copying the whole arena under the segment lock.
func TestLoadLeavesArenaHeadroom(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	s := New()
	s.Load(tableBatches(rng, randomTable(rng, 2000, false)), 2)
	base := &s.arena[0]
	s.ReplaceTail(0, 1, []graph.NodeID{1, 2, 3})
	if &s.arena[0] != base {
		t.Fatal("first ReplaceTail after Load reallocated the arena")
	}

	// Leave garbage behind, compact it away, and rewrite one tail.
	for id := SegmentID(0); id < 500; id++ {
		s.ReplaceTail(id, 1, []graph.NodeID{4, 5})
	}
	if _, reclaimed := s.Compact(); reclaimed == 0 {
		t.Fatal("Compact reclaimed nothing; test setup broken")
	}
	base = &s.arena[0]
	s.ReplaceTail(0, 1, []graph.NodeID{1, 2, 3})
	if &s.arena[0] != base {
		t.Fatal("first ReplaceTail after Compact reallocated the arena")
	}
}
