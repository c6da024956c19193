package walkstore

import (
	"cmp"
	"fmt"
	"slices"

	"fastppr/internal/graph"
)

// PosHit is one pending-position index entry: a stored segment and the path
// position at which it visits the indexed node. For a sided segment the entry
// lives in the bucket of the visit's pending step direction; unsided segments
// keep all their visit positions in one bucket. Hits sort by (Seg, Pos) —
// ascending segment ID, then ascending position — which is exactly the
// canonical candidate-enumeration order the maintainers' repair scans draw
// truncated-geometric first-switch indices over.
type PosHit struct {
	Seg SegmentID
	Pos int32
}

func comparePosHit(a, b PosHit) int {
	if c := cmp.Compare(a.Seg, b.Seg); c != 0 {
		return c
	}
	return cmp.Compare(a.Pos, b.Pos)
}

// pendingBuckets is the number of per-node position-index buckets: one per
// sided pending direction (indexed by Side) plus one for unsided segments.
const (
	unsidedBucket  = 2
	pendingBuckets = 3
)

// pendingBucket maps a visit's (segment side, path position) to its index
// bucket: the pending step direction for sided segments (side XOR position
// parity), the dedicated unsided bucket otherwise.
func pendingBucket(side Side, pos int) int {
	if side < 0 {
		return unsidedBucket
	}
	return int(side.PendingAt(pos))
}

// bucketOf maps the direction argument of the index read API to a bucket:
// SideForward/SideBackward address the sided pending-direction buckets,
// Unsided the unsided visit-position bucket.
func bucketOf(dir Side) int {
	if dir == Unsided {
		return unsidedBucket
	}
	mustDir(dir)
	return int(dir)
}

// packEntry encodes one index entry as seg<<32 | pos. Numeric order of the
// packed word is exactly (seg, pos) lexicographic order, so the index sorts,
// searches, and moves single machine words. Segment IDs are dense from 0
// and positions are bounded by path length, so both comfortably fit 32
// bits; the guard documents the limit rather than silently corrupting past
// it.
func packEntry(seg SegmentID, pos int32) uint64 {
	if uint64(seg) >= 1<<32 {
		panic(fmt.Sprintf("walkstore: segment %d overflows the packed position index", seg))
	}
	return uint64(seg)<<32 | uint64(uint32(pos))
}

func unpackEntry(e uint64) PosHit {
	return PosHit{Seg: SegmentID(e >> 32), Pos: int32(uint32(e))}
}

// runCap bounds the entries of one posIndex run. A mid-bucket insert or
// remove moves at most runCap words, and a run of runCap words is a single
// 4 KiB allocation.
const runCap = 512

// posIndex is the pending-position set of one (node, bucket): the exact
// (segment, position) pairs where a stored visit to the node is pending a
// step in the bucket's direction, as packed seg<<32|pos words. The words
// sit in a sorted sequence of runs: each run is non-empty, holds at most
// runCap entries, and every word of a run is smaller than every word of the
// next, so concatenating the runs gives the sorted entry list. Runs are
// pointer-free (the GC never scans their words), appends dominate (fresh
// segments carry the largest IDs), and a mid insert or remove moves words
// within one run only, so a hub bucket costs the same 8 bytes per entry as
// a small one and no update moves more than runCap words. The zero value is
// an empty index.
type posIndex struct {
	runs [][]uint64
	n    int // total entries across runs
}

// find returns the index of the run that holds e if it is present: the last
// run whose head is <= e, or run 0 when e sorts before every head. px must
// hold at least one run.
func (px *posIndex) find(e uint64) int {
	lo, hi := 1, len(px.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if px.runs[m][0] <= e {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func (px *posIndex) add(seg SegmentID, pos int32) {
	e := packEntry(seg, pos)
	px.n++
	// Fast path: fresh segments carry the largest ID yet, so bulk loads and
	// reroute tails append at the end of the last run.
	last := len(px.runs) - 1
	if last < 0 || px.runs[last][len(px.runs[last])-1] < e {
		if last < 0 || len(px.runs[last]) == runCap {
			px.runs = append(px.runs, []uint64{e})
		} else {
			px.runs[last] = append(px.runs[last], e)
		}
		return
	}
	ri := px.find(e)
	r := px.runs[ri]
	i, found := slices.BinarySearch(r, e)
	if found {
		panic(fmt.Sprintf("walkstore: duplicate pending position (%d,%d)", seg, pos))
	}
	if len(r) == runCap {
		// Split the full run in halves; the left half keeps the backing
		// array, the right half moves to a fresh one.
		h := runCap / 2
		right := slices.Clone(r[h:])
		r = r[:h]
		px.runs[ri] = r
		px.runs = slices.Insert(px.runs, ri+1, right)
		if i > h {
			ri, r, i = ri+1, right, i-h
		}
	}
	px.runs[ri] = slices.Insert(r, i, e)
}

// remove drops one entry, and its run once the run is empty.
func (px *posIndex) remove(seg SegmentID, pos int32) {
	e := packEntry(seg, pos)
	if len(px.runs) == 0 {
		panic(fmt.Sprintf("walkstore: removing absent pending position (%d,%d)", seg, pos))
	}
	ri := px.find(e)
	r := px.runs[ri]
	i, found := slices.BinarySearch(r, e)
	if !found {
		panic(fmt.Sprintf("walkstore: removing absent pending position (%d,%d)", seg, pos))
	}
	px.n--
	if len(r) == 1 {
		px.runs = slices.Delete(px.runs, ri, ri+1)
		return
	}
	px.runs[ri] = slices.Delete(r, i, i+1)
}

// reserve allocates runs for the px.n entries a bulk load counted, at their
// final size and in one block: full runs of runCap and a partial last one,
// the boundaries ascending adds would leave. It empties the index for fill.
// Each run's capacity ends where the next run begins, so a later insert
// into a full run reallocates that run instead of writing into its
// neighbour.
func (px *posIndex) reserve() {
	if px.n == 0 {
		return
	}
	block := make([]uint64, px.n)
	px.runs = make([][]uint64, (px.n+runCap-1)/runCap)
	for i := range px.runs {
		lo := i * runCap
		px.runs[i] = block[lo:lo:min(lo+runCap, px.n)]
	}
	px.n = 0
}

// fill appends e, which must sort after every entry, to a reserved index.
func (px *posIndex) fill(e uint64) {
	r := px.n / runCap
	px.runs[r] = append(px.runs[r], e)
	px.n++
}

// appendTo appends every entry to dst in (seg, pos) order: the runs in
// sequence.
func (px *posIndex) appendTo(dst []PosHit) []PosHit {
	dst = slices.Grow(dst, px.n)
	for _, r := range px.runs {
		for _, e := range r {
			dst = append(dst, unpackEntry(e))
		}
	}
	return dst
}

// appendSegs appends the bucket's distinct segment IDs to dst, ascending.
// Callers sort and deduplicate across buckets.
func (px *posIndex) appendSegs(dst []SegmentID) []SegmentID {
	for _, r := range px.runs {
		for _, e := range r {
			if seg := SegmentID(e >> 32); len(dst) == 0 || dst[len(dst)-1] != seg {
				dst = append(dst, seg)
			}
		}
	}
	return dst
}

// AppendPendingPositions appends the pending-position entries of (v, dir) to
// dst (reset first) and returns it sorted by (segment, position). For
// dir == SideForward or SideBackward the entries are exactly the stored
// sided visits to v whose pending step has direction dir, terminal visits
// included — so non-terminal entries count PendingCandidates(v, dir) and the
// entry at a segment's last position is a PendingTerminals(v, dir) member.
// For dir == Unsided they are every visit position of unsided segments at v
// (the PageRank repair enumeration). The copy is taken under v's counter
// stripe lock. See docs/DESIGN.md#7-the-pending-position-index for how the
// maintainers freeze and consume this enumeration.
func (s *Store) AppendPendingPositions(dst []PosHit, v graph.NodeID, dir Side) []PosHit {
	b := bucketOf(dir)
	dst = dst[:0]
	st := s.stripe(v)
	st.mu.RLock()
	if ns := st.node(v); ns != nil {
		dst = ns.pending[b].appendTo(dst)
	}
	st.mu.RUnlock()
	return dst
}

// PendingPositions is AppendPendingPositions into a fresh slice.
func (s *Store) PendingPositions(v graph.NodeID, dir Side) []PosHit {
	return s.AppendPendingPositions(nil, v, dir)
}

// DistinctSegments appends the distinct segment IDs of hits — which must be
// sorted by (seg, pos), as AppendPendingPositions returns them — to dst
// (reset first), ascending. This is the segment set a repair phase freezes
// under its SegmentID stripe locks before consuming the hits.
func DistinctSegments(dst []SegmentID, hits []PosHit) []SegmentID {
	dst = dst[:0]
	for _, h := range hits {
		if len(dst) == 0 || dst[len(dst)-1] != h.Seg {
			dst = append(dst, h.Seg)
		}
	}
	return dst
}

// KeepSegments filters hits (sorted by segment) in place to the entries
// whose segment appears in segs (sorted ascending), returning the shortened
// slice. A repair phase applies it to the re-read index snapshot so the
// frozen enumeration never includes a segment it did not lock.
func KeepSegments(hits []PosHit, segs []SegmentID) []PosHit {
	out := hits[:0]
	j := 0
	for _, h := range hits {
		for j < len(segs) && segs[j] < h.Seg {
			j++
		}
		if j < len(segs) && segs[j] == h.Seg {
			out = append(out, h)
		}
	}
	return out
}
