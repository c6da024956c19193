package walkstore

import (
	"fmt"
	"runtime"

	"fastppr/internal/graph"
)

// SegmentDump is one slot of a store dump, indexed by SegmentID. Dead slots
// (segments removed before the dump) carry Live == false and no path; they
// are preserved so a restored store assigns the same ID to its next Add —
// segment IDs drive the pending-position enumeration order the maintainers
// draw RNG indices over, so recovery must reproduce them bitwise, dead gaps
// included.
type SegmentDump struct {
	Live bool
	Side Side
	Path []graph.NodeID
}

// Dump is a point-in-time copy of everything a store needs to be rebuilt:
// the full segment table (live paths plus dead-slot gaps) and the epoch the
// copy was taken at. The visit totals are derivable from the live paths;
// they are carried anyway so Restore can cross-check its recount against
// what the live store believed.
type Dump struct {
	Epoch       int64
	TotalVisits int64
	SidedTotals [2]int64
	Segs        []SegmentDump
}

// Dump captures the store for a snapshot. It requires quiescence and
// enforces it the same way Validate does: with the segment lock and every
// counter stripe held, a non-zero in-flight mutation count is definitive and
// the dump fails with ErrConcurrentMutation (wrapped) instead of copying a
// store caught between a mutation's arena and counter phases.
func (s *Store) Dump() (*Dump, error) {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		defer s.stripes[i].mu.RUnlock()
	}
	if n := s.mutators.Load(); n != 0 {
		return nil, fmt.Errorf("%w: %d segment mutations in flight during Dump", ErrConcurrentMutation, n)
	}
	d := &Dump{
		Epoch:       s.epoch.Load(),
		TotalVisits: s.totalVisits.Load(),
		SidedTotals: [2]int64{s.sidedTotals[0].Load(), s.sidedTotals[1].Load()},
		Segs:        make([]SegmentDump, len(s.segs)),
	}
	for i, r := range s.segs {
		if !r.live {
			continue
		}
		d.Segs[i] = SegmentDump{
			Live: true,
			Side: r.side,
			Path: append([]graph.NodeID(nil), s.pathLocked(r)...),
		}
	}
	return d, nil
}

// Restore builds a fresh store from a dump: New plus one bulk Load of the
// dump's segment table, dead slots included, which rebuilds every derived
// structure (counters, owner lists, terminals, and the pending-position
// index) from the live paths. It then cross-checks the recounted totals
// against the dump's. The rebuilt store is behaviorally identical to the
// dumped one: segment IDs (dead slots included), epoch, owner-list order
// (per node, entries were appended in ascending-ID order on the live store,
// which is exactly the order Load reproduces), and every counter match
// bitwise; only arena offsets and index run boundaries may differ, and
// nothing reads those. A dump whose epoch is below its slot count is
// rejected: every slot came from an add that advanced the epoch.
func Restore(d *Dump) (*Store, error) {
	if d.Epoch < int64(len(d.Segs)) {
		return nil, fmt.Errorf("walkstore: restore: dump epoch %d is below its %d segment slots", d.Epoch, len(d.Segs))
	}
	b := Batch{Lens: make([]int32, len(d.Segs)), Sides: make([]Side, len(d.Segs))}
	numNodes := 0
	for i, sd := range d.Segs {
		if !sd.Live {
			continue
		}
		if len(sd.Path) == 0 {
			return nil, fmt.Errorf("walkstore: restore: live segment %d has empty path", i)
		}
		if sd.Side != Unsided && sd.Side != SideForward && sd.Side != SideBackward {
			return nil, fmt.Errorf("walkstore: restore: segment %d has invalid side %d", i, sd.Side)
		}
		b.Lens[i], b.Sides[i] = int32(len(sd.Path)), sd.Side
		numNodes += len(sd.Path)
	}
	b.Nodes = make([]graph.NodeID, 0, numNodes)
	for _, sd := range d.Segs {
		if sd.Live {
			b.Nodes = append(b.Nodes, sd.Path...)
		}
	}
	s := New()
	s.load([]Batch{b}, runtime.GOMAXPROCS(0))

	if total := s.totalVisits.Load(); total != d.TotalVisits {
		return nil, fmt.Errorf("walkstore: restore: dump declares %d total visits, paths recount %d", d.TotalVisits, total)
	}
	for dir := 0; dir < 2; dir++ {
		if sided := s.sidedTotals[dir].Load(); sided != d.SidedTotals[dir] {
			return nil, fmt.Errorf("walkstore: restore: dump declares %d sided visits for direction %d, paths recount %d",
				d.SidedTotals[dir], dir, sided)
		}
	}
	s.epoch.Store(d.Epoch)
	return s, nil
}
