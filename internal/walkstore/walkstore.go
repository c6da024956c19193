package walkstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
)

// SegmentID identifies a stored segment. IDs are assigned densely from 0 and
// never reused.
type SegmentID int64

// Side tags a stored segment with the direction of its first step. PageRank
// segments are Unsided; SALSA segments are stored once per side so the
// maintainer can serve hub and authority scores from one store. The values
// mirror walk.Direction (Forward = 0, Backward = 1) so callers can convert
// with a cast.
type Side int8

const (
	// Unsided marks a plain reset-walk segment (no alternation structure).
	Unsided Side = -1
	// SideForward marks a segment whose first step follows an out-edge: an
	// alternating walk started on the hub side.
	SideForward Side = 0
	// SideBackward marks a segment whose first step follows an in-edge: an
	// alternating walk started on the authority side.
	SideBackward Side = 1
)

// PendingAt returns the direction of the step an alternating segment takes
// *from* path position pos: the first direction at even positions, its
// opposite at odd ones. Only valid on sided values.
func (s Side) PendingAt(pos int) Side {
	if s < 0 {
		panic("walkstore: PendingAt on unsided segment")
	}
	return Side(int8(s) ^ int8(pos&1))
}

func mustDir(d Side) {
	if d != SideForward && d != SideBackward {
		panic(fmt.Sprintf("walkstore: invalid direction %d", d))
	}
}

// Observer is notified of visit-count mutations: delta is +1 when a segment
// gains a visit to node at path position pos, -1 when it loses one. The
// observer runs under the counter stripe lock of the visited node, so it may
// fire concurrently for different nodes.
type Observer func(seg SegmentID, node graph.NodeID, pos int, delta int)

// MutationLog receives every segment mutation as a serialized feed — the
// segment-level sibling of the per-visit Observer, shaped for write-ahead
// logging. Each method is invoked inside the mutation's segMu critical
// section, so calls are totally ordered and that order is a valid
// linearization of the store's mutation history: replaying the calls against
// an empty store (or a store restored to the epoch the log started at)
// reproduces the live store's segment table bitwise, dead slots and ID
// assignment included. Path and tail slices are arena-resident and stable;
// the log may retain them. Implementations must not call back into the store
// and must not block on anything that itself mutates the store (the calls
// run under the segment lock). See docs/DESIGN.md#8-durability--recovery.
type MutationLog interface {
	// LogAdd records a stored segment: AddBatchSided and Load emit one call
	// per path, in ID order. The store's epoch after the mutation completes
	// is the number of LogAdd/LogReplaceTail/LogRemove calls issued so far.
	LogAdd(id SegmentID, side Side, path []graph.NodeID)
	// LogReplaceTail records a tail replacement (keep >= 1 prefix nodes, then
	// tail). No-op replacements (keep == length, empty tail) are not logged,
	// matching their absent epoch bump.
	LogReplaceTail(id SegmentID, keep int, tail []graph.NodeID)
	// LogRemove records a segment removal. The ID is never reused.
	LogRemove(id SegmentID)
}

// segRef addresses one segment's path inside the arena.
type segRef struct {
	off  int64
	n    int32
	side Side
	live bool
}

const (
	// stripeBits selects the counter stripe from a node ID's low bits;
	// numStripes is the stripe count. Low-bit striping (rather than a hash)
	// is what makes the dense slot addressing below exact: node v lives in
	// stripe v&63 at slot v>>6, so dense ID spaces — every generator and the
	// production workload assign 0..n-1 — hit a plain slice index instead of
	// a hash map on every counter touch.
	stripeBits = 6
	numStripes = 1 << stripeBits
	// denseLimit bounds the IDs served from dense slots; rarer IDs at or
	// above it (or negative) fall back to the per-stripe sparse map, so a
	// wild ID costs a map hit instead of gigabytes of slots.
	denseLimit = 1 << 26
)

// nodeState bundles every per-node structure the store maintains — visit and
// terminal counters, owner lists, the sided pending-direction counters, and
// the pending-position index buckets — so one node-state lookup per mutation
// or read serves all of them. Before this consolidation every visit update
// hashed the same node key into half a dozen parallel maps; now it is one
// slot read plus field arithmetic, which is what keeps the index maintenance
// cheaper than the scans it replaced.
type nodeState struct {
	visits    int64 // X_v
	terminals int64 // T(v): live segments ending here
	owned     []SegmentID

	// Per-side counters over sided (alternating) segments, indexed by the
	// pending step direction of a visit: a visit at position pos of a segment
	// with first direction f has pending direction f XOR (pos&1). Visits
	// pending a Backward step are authority-side, visits pending a Forward
	// step are hub-side, so these fields are exactly the SALSA maintainer's
	// score numerators and skip-coin exponents.
	sidedVisits    [2]int64
	sidedTerminals [2]int64
	ownedSided     [2][]SegmentID

	// Pending-position index: the exact (segment, position) pairs of stored
	// visits to this node, bucketed by pending step direction (sided) or
	// into the unsided bucket. It is the counters above made enumerable —
	// the repair scans read their candidate lists from here instead of
	// walking every visitor's full path. The buckets hold exactly one entry
	// per visit, so they double as the inverted visitor index: Visitors and
	// W derive from them instead of a separately maintained multiset.
	pending [pendingBuckets]posIndex
}

// empty reports whether the node no longer holds any stored state. The
// pending buckets hold exactly one entry per visit, so visits == 0 implies
// they are empty; the other fields are checked explicitly because terminals
// and owner lists move under their own lock acquisitions during a multi-step
// mutation.
func (ns *nodeState) empty() bool {
	return ns.visits == 0 && ns.terminals == 0 && len(ns.owned) == 0 &&
		ns.sidedTerminals == [2]int64{} &&
		len(ns.ownedSided[0]) == 0 && len(ns.ownedSided[1]) == 0
}

// counterStripe owns the node states of the nodes whose IDs select it, plus
// this stripe's share of the global visit totals. Everything a single node's
// skip coin needs — visits, terminals, candidates, sided variants, pending
// positions — lives under one stripe lock, so a maintainer reads a
// consistent per-node view with one acquisition while unrelated nodes
// proceed in parallel.
type counterStripe struct {
	mu sync.RWMutex
	// dense holds node states at slot v>>stripeBits for IDs below
	// denseLimit; sparse catches everything else. numNodes counts live
	// states across both.
	dense    []*nodeState
	sparse   map[graph.NodeID]*nodeState
	numNodes int

	// Stripe shares of the global totals; Validate cross-checks that they
	// sum to the atomic globals and to a recount from the stored paths.
	totalVisits int64
	sidedTotals [2]int64

	// epoch counts mutating acquisitions of this stripe's lock: every
	// locked section that changed any node state in the stripe bumps it
	// exactly once, from inside the critical section. It is the global
	// Epoch() localized: a reader holding a stamp for the stripes it
	// depends on learns whether *those* nodes' stored state moved, without
	// being invalidated by an unrelated storm. Written under mu, read
	// atomically (StripeEpoch); Validate cross-checks the sum of all
	// stripe epochs against the global stripeTouches counter so a mutation
	// path cannot silently skip the bump.
	epoch atomic.Int64
}

// node returns the node's state, or nil.
func (st *counterStripe) node(v graph.NodeID) *nodeState {
	if u := uint64(v); u < denseLimit {
		if slot := u >> stripeBits; slot < uint64(len(st.dense)) {
			return st.dense[slot]
		}
		return nil
	}
	return st.sparse[v]
}

// nodeCreate returns the node's state, allocating it on first touch.
func (st *counterStripe) nodeCreate(v graph.NodeID) *nodeState {
	if u := uint64(v); u < denseLimit {
		slot := u >> stripeBits
		if slot >= uint64(len(st.dense)) {
			grown := make([]*nodeState, max(int(slot)+1, 2*len(st.dense)))
			copy(grown, st.dense)
			st.dense = grown
		}
		ns := st.dense[slot]
		if ns == nil {
			ns = &nodeState{}
			st.dense[slot] = ns
			st.numNodes++
		}
		return ns
	}
	ns := st.sparse[v]
	if ns == nil {
		ns = &nodeState{}
		st.sparse[v] = ns
		st.numNodes++
	}
	return ns
}

// maybeDelete drops a node whose state has fully drained.
func (st *counterStripe) maybeDelete(v graph.NodeID, ns *nodeState) {
	if !ns.empty() {
		return
	}
	if u := uint64(v); u < denseLimit {
		st.dense[u>>stripeBits] = nil
	} else {
		delete(st.sparse, v)
	}
	st.numNodes--
}

// each calls f for every live node state in the stripe. i is the stripe's
// index, needed to reconstruct dense IDs (v = slot<<stripeBits | i).
func (st *counterStripe) each(i int, f func(v graph.NodeID, ns *nodeState)) {
	for slot, ns := range st.dense {
		if ns != nil {
			f(graph.NodeID(uint64(slot)<<stripeBits|uint64(i)), ns)
		}
	}
	for v, ns := range st.sparse {
		f(v, ns)
	}
}

// ErrConcurrentMutation is returned (wrapped) by Validate when it catches a
// segment mutation in flight: the store is not corrupt, the caller raced the
// mutators. Re-run Validate at a quiescent point.
var ErrConcurrentMutation = errors.New("walkstore: concurrent mutation during Validate")

// Store holds walk segments with an inverted visit index. Reads are safe for
// arbitrary concurrent use. Mutations of *different* segments are safe
// concurrently; mutations of the same segment (ReplaceTail/Remove on one ID)
// must be serialized by the caller — both maintainers hold SegmentID stripe
// locks for exactly this. Counter state is sharded into
// numStripes lock stripes by node, so per-node reads and updates of
// unrelated nodes do not contend.
type Store struct {
	segMu     sync.RWMutex // guards arena, segs, numLive, liveNodes, observer, mlog
	arena     []graph.NodeID
	segs      []segRef // indexed by SegmentID
	numLive   int
	liveNodes int64 // arena slots referenced by live segments
	observer  Observer
	mlog      MutationLog

	// Global counter mirrors, updated once per completed mutation (the
	// per-stripe shares stay lock-exact). Individually exact at quiescent
	// points; under concurrent mutation a reader pairing a stripe count with
	// an atomic total sees skew bounded by the mutations in flight — see
	// docs/DESIGN.md#6-concurrency-model for the snapshot semantics.
	totalVisits atomic.Int64
	sidedTotals [2]atomic.Int64

	// epoch counts completed segment mutations (Add/ReplaceTail/Remove). A
	// reader brackets work with two Epoch() calls to learn whether — and how
	// much — the store moved underneath it.
	epoch atomic.Int64

	// stripeTouches counts mutating stripe-lock acquisitions across all
	// stripes — the running sum the per-stripe epochs must add up to.
	// Maintained purely as Validate's cross-check on the stripe epochs.
	stripeTouches atomic.Int64

	// mutators counts segment mutations in flight, from inside the segMu
	// critical section of their arena phase until their last counter update
	// has landed. Validate holds segMu plus every counter stripe, so a
	// non-zero read there means a mutation is caught between phases — the one
	// state a lock-holding validator cannot distinguish from corruption — and
	// Validate fails with ErrConcurrentMutation instead of a bogus report.
	mutators atomic.Int64

	stripes [numStripes]counterStripe
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.stripes {
		s.stripes[i].sparse = make(map[graph.NodeID]*nodeState)
	}
	return s
}

// stripeIndex returns the counter stripe index of node v.
func stripeIndex(v graph.NodeID) int {
	return int(uint64(v) & (numStripes - 1))
}

// stripe returns the counter stripe owning node v.
func (s *Store) stripe(v graph.NodeID) *counterStripe {
	return &s.stripes[stripeIndex(v)]
}

// NumStripes returns the number of counter stripes (for tests and bench
// provenance).
func (s *Store) NumStripes() int { return numStripes }

// StripeCount is the number of counter stripes as a compile-time constant,
// exported so callers keying per-stripe state (the serving tier's
// invalidation stamps fit one uint64 bitmask exactly because this is 64) can
// size arrays and fail to compile if the stripe geometry ever changes.
const StripeCount = numStripes

// StripeOf returns the index of the counter stripe owning node v — the key
// under which per-node mutations stamp StripeEpoch. Queries accumulate the
// stripes they depend on with this function.
func StripeOf(v graph.NodeID) int { return stripeIndex(v) }

// GroupByStripe returns a stable permutation of [0, n) grouping indices by
// StripeOf(node(i)): a counting sort, O(n + StripeCount). The maintainers
// pre-group a storm's arrivals by source stripe with it so consecutive
// claims touch the same counter stripe and endpoint locks (cache-local
// ingestion); stability keeps same-stripe arrivals in stream order.
func GroupByStripe(n int, node func(int) graph.NodeID) []int {
	var next [numStripes]int
	for i := 0; i < n; i++ {
		next[stripeIndex(node(i))]++
	}
	sum := 0
	for i := range next {
		next[i], sum = sum, sum+next[i]
	}
	order := make([]int, n)
	for i := 0; i < n; i++ {
		st := stripeIndex(node(i))
		order[next[st]] = i
		next[st]++
	}
	return order
}

// Epoch returns the number of completed segment mutations. Monotone;
// bracketing a read-only pass with two Epoch calls bounds how many mutations
// landed during it.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// StripeEpoch returns stripe i's mutation stamp: the number of locked
// sections that changed any node state in the stripe. It is Epoch()
// localized — a mutation bumps exactly the stripes whose nodes it touched,
// so a reader that stamps the stripes it read can detect whether *its*
// dependencies moved while unrelated stripes churn freely. Monotone;
// bumped after the owning critical section's changes are visible.
func (s *Store) StripeEpoch(i int) int64 { return s.stripes[i].epoch.Load() }

// AppendStripeEpochs appends every stripe's current epoch to dst (reset
// first), indexed by stripe. The loads are individually atomic, not a
// consistent cut: under concurrent mutation each stamp is exact for its own
// stripe, which is all the per-stripe validation protocol needs.
func (s *Store) AppendStripeEpochs(dst []int64) []int64 {
	dst = dst[:0]
	for i := range s.stripes {
		dst = append(dst, s.stripes[i].epoch.Load())
	}
	return dst
}

// touchStripeLocked records one mutating acquisition of st's lock. Caller
// holds st.mu; the paired global counter keeps Validate able to prove no
// mutation path skipped its bump.
func (s *Store) touchStripeLocked(st *counterStripe) {
	st.epoch.Add(1)
	s.stripeTouches.Add(1)
}

// SetObserver installs an observer for visit mutations. Must be called
// while the store holds no live segments (fresh, or emptied for a rebuild);
// the observer then sees every mutation.
func (s *Store) SetObserver(o Observer) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.numLive != 0 {
		panic("walkstore: SetObserver with live segments")
	}
	s.observer = o
}

// SetMutationLog installs (or, with nil, detaches) the segment-mutation log.
// Unlike SetObserver it is legal on a store holding live segments — the
// durability layer attaches a WAL to a store restored from a snapshot — but
// the caller must guarantee no mutation is in flight (the recovery path is
// single-threaded; a running system quiesces first), or the log would miss
// the straddling mutation.
func (s *Store) SetMutationLog(l MutationLog) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	s.mlog = l
}

// Add stores a new unsided segment owned by its first node and returns its
// ID. The path must be non-empty. The path is copied; the caller keeps
// ownership of its slice.
func (s *Store) Add(path []graph.NodeID) SegmentID {
	return s.AddSided(path, Unsided)
}

// AddSided stores a new segment tagged with the direction of its first step.
// Sided segments additionally maintain the per-side pending-direction
// counters and the per-side owner index.
func (s *Store) AddSided(path []graph.NodeID, side Side) SegmentID {
	return s.AddBatchSided([][]graph.NodeID{path}, side)[0]
}

// AddBatch stores many unsided segments under one arena-lock acquisition —
// the path the maintainers use to seed nodes first seen mid-stream (an
// empty store is filled with Load instead). Every path must be non-empty;
// paths are copied. The returned IDs are in input order.
func (s *Store) AddBatch(paths [][]graph.NodeID) []SegmentID {
	return s.AddBatchSided(paths, Unsided)
}

// AddBatchSided is AddBatch with every segment tagged with one side.
func (s *Store) AddBatchSided(paths [][]graph.NodeID, side Side) []SegmentID {
	if side != Unsided {
		mustDir(side)
	}
	ids := make([]SegmentID, len(paths))
	stored := make([][]graph.NodeID, len(paths))
	s.segMu.Lock()
	for _, p := range paths {
		if len(p) == 0 {
			s.segMu.Unlock()
			panic("walkstore: empty segment path")
		}
	}
	s.mutators.Add(1)
	for i, p := range paths {
		ids[i], stored[i] = s.appendSegmentLocked(p, side)
		if s.mlog != nil {
			s.mlog.LogAdd(ids[i], side, stored[i])
		}
	}
	s.segMu.Unlock()
	s.indexBatch(ids, stored, side)
	s.epoch.Add(int64(len(paths)))
	s.mutators.Add(-1)
	return ids
}

// idxOp is one deferred per-node index update of a batch add, grouped by
// counter stripe so a whole batch pays one lock acquisition per touched
// stripe instead of one per visit.
type idxOp struct {
	id   SegmentID
	v    graph.NodeID
	pos  int32 // visit position; for opTerminal, the path's last position
	kind uint8
}

const (
	opVisit uint8 = iota
	opOwner
	opTerminal
)

// indexBatch registers freshly appended segments in the per-node counter
// stripes — owner lists, terminal counters, one visit (and pending-position
// entry) per path position — with all updates for one stripe applied under a
// single lock acquisition. Per-node op order follows input order, so owner
// lists keep insertion order.
func (s *Store) indexBatch(ids []SegmentID, stored [][]graph.NodeID, side Side) {
	var ops [numStripes][]idxOp
	var totalDelta int64
	var sidedDelta [2]int64
	for i, p := range stored {
		id := ids[i]
		src := p[0]
		ops[stripeIndex(src)] = append(ops[stripeIndex(src)], idxOp{id: id, v: src, kind: opOwner})
		end := p[len(p)-1]
		ops[stripeIndex(end)] = append(ops[stripeIndex(end)], idxOp{id: id, v: end, pos: int32(len(p) - 1), kind: opTerminal})
		for pos, v := range p {
			ops[stripeIndex(v)] = append(ops[stripeIndex(v)], idxOp{id: id, v: v, pos: int32(pos), kind: opVisit})
			totalDelta++
			if side >= 0 {
				sidedDelta[side.PendingAt(pos)]++
			}
		}
	}
	for si := range ops {
		if len(ops[si]) == 0 {
			continue
		}
		st := &s.stripes[si]
		st.mu.Lock()
		s.touchStripeLocked(st)
		for _, op := range ops[si] {
			switch op.kind {
			case opOwner:
				ns := st.nodeCreate(op.v)
				ns.owned = append(ns.owned, op.id)
				if side >= 0 {
					ns.ownedSided[side] = append(ns.ownedSided[side], op.id)
				}
			case opTerminal:
				ns := st.nodeCreate(op.v)
				ns.terminals++
				if side >= 0 {
					ns.sidedTerminals[side.PendingAt(int(op.pos))]++
				}
			case opVisit:
				s.addVisitLocked(st, op.id, op.v, int(op.pos), side)
			}
		}
		st.mu.Unlock()
	}
	s.bumpTotals(totalDelta, sidedDelta)
}

// bumpTotals applies one mutation's worth of deltas to the atomic global
// mirrors (the per-stripe shares are updated inside the locked sections).
func (s *Store) bumpTotals(totalDelta int64, sidedDelta [2]int64) {
	if totalDelta != 0 {
		s.totalVisits.Add(totalDelta)
	}
	for d := 0; d < 2; d++ {
		if sidedDelta[d] != 0 {
			s.sidedTotals[d].Add(sidedDelta[d])
		}
	}
}

// appendSegmentLocked writes one segment into the arena and returns its ID
// together with the arena-resident copy of the path (stable forever, safe to
// read after the lock is released). Caller holds segMu.
func (s *Store) appendSegmentLocked(path []graph.NodeID, side Side) (SegmentID, []graph.NodeID) {
	id := SegmentID(len(s.segs))
	off := int64(len(s.arena))
	s.arena = append(s.arena, path...)
	s.segs = append(s.segs, segRef{off: off, n: int32(len(path)), side: side, live: true})
	s.numLive++
	s.liveNodes += int64(len(path))
	return id, s.arena[off : off+int64(len(path)) : off+int64(len(path))]
}

// addVisitLocked records one visit of segment id to v at path position pos:
// visit counters, stripe share, pending-position index, observer — one node
// lookup, then field arithmetic. The caller holds v's stripe lock and is
// responsible for the atomic global totals (bumpTotals).
func (s *Store) addVisitLocked(st *counterStripe, id SegmentID, v graph.NodeID, pos int, side Side) {
	ns := st.nodeCreate(v)
	ns.visits++
	st.totalVisits++
	if side >= 0 {
		d := side.PendingAt(pos)
		ns.sidedVisits[d]++
		st.sidedTotals[d]++
	}
	ns.pending[pendingBucket(side, pos)].add(id, int32(pos))
	if s.observer != nil {
		s.observer(id, v, pos, +1)
	}
}

// removeVisitLocked is addVisitLocked's inverse; it does not drain the node
// (callers run maybeDelete once their stripe group completes).
func (s *Store) removeVisitLocked(st *counterStripe, ns *nodeState, id SegmentID, v graph.NodeID, pos int, side Side) {
	ns.visits--
	st.totalVisits--
	if side >= 0 {
		d := side.PendingAt(pos)
		ns.sidedVisits[d]--
		st.sidedTotals[d]--
	}
	ns.pending[pendingBucket(side, pos)].remove(id, int32(pos))
	if s.observer != nil {
		s.observer(id, v, pos, -1)
	}
}

// tailOp is one deferred counter update of a ReplaceTail/Remove, batched by
// stripe exactly like idxOp: a redirect touches ~2L positions across ~2L
// stripes' worth of nodes, and paying one lock acquisition and one atomic
// total update per mutation instead of one per visit is a large share of the
// arrival hot path.
type tailOp struct {
	id   SegmentID
	v    graph.NodeID
	pos  int32
	kind uint8
	side Side // the mutated segment's stored side (Unsided for plain walks)
	d    Side // direction for sided terminal ops
}

const (
	tailVisitRemove uint8 = iota
	tailVisitAdd
	tailTermDec
	tailTermInc
	tailSidedDec
	tailSidedInc
)

var tailOpPool = sync.Pool{New: func() any { b := make([]tailOp, 0, 64); return &b }}

// applyTailOps groups ops by counter stripe (stable, so one node's removals
// keep their descending-position order) and applies each group under a
// single stripe-lock acquisition, then bumps the atomic totals once. Every
// op carries its own segment and side, so one call can apply a whole batch
// of tail mutations spanning segments of different sides, with each touched
// stripe still paying exactly one mutating acquisition for the batch.
func (s *Store) applyTailOps(ops []tailOp) {
	sortOpsByStripe(ops)
	var totalDelta int64
	var sidedDelta [2]int64
	for i := 0; i < len(ops); {
		si := stripeIndex(ops[i].v)
		st := &s.stripes[si]
		st.mu.Lock()
		s.touchStripeLocked(st)
		j := i
		for ; j < len(ops) && stripeIndex(ops[j].v) == si; j++ {
			op := ops[j]
			switch op.kind {
			case tailVisitRemove:
				ns := st.node(op.v)
				if ns == nil {
					st.mu.Unlock()
					panic(fmt.Sprintf("walkstore: removing absent visit of segment %d at node %d", op.id, op.v))
				}
				s.removeVisitLocked(st, ns, op.id, op.v, int(op.pos), op.side)
				totalDelta--
				if op.side >= 0 {
					sidedDelta[op.side.PendingAt(int(op.pos))]--
				}
				st.maybeDelete(op.v, ns)
			case tailVisitAdd:
				s.addVisitLocked(st, op.id, op.v, int(op.pos), op.side)
				totalDelta++
				if op.side >= 0 {
					sidedDelta[op.side.PendingAt(int(op.pos))]++
				}
			case tailTermDec:
				ns := st.node(op.v)
				ns.terminals--
				st.maybeDelete(op.v, ns)
			case tailTermInc:
				st.nodeCreate(op.v).terminals++
			case tailSidedDec:
				ns := st.node(op.v)
				ns.sidedTerminals[op.d]--
				st.maybeDelete(op.v, ns)
			case tailSidedInc:
				st.nodeCreate(op.v).sidedTerminals[op.d]++
			}
		}
		st.mu.Unlock()
		i = j
	}
	s.bumpTotals(totalDelta, sidedDelta)
}

// sortOpsByStripe stably sorts ops by counter stripe index: insertion sort
// for a single mutation's ~2L ops, counting sort over the 64 stripes for
// larger batches. Both are stable, so a batch applies each stripe's ops in
// exactly the order a sequence of single mutations would have — the
// byte-equality the batched write path is proven against.
func sortOpsByStripe(ops []tailOp) {
	if len(ops) <= 32 {
		for i := 1; i < len(ops); i++ {
			for j := i; j > 0 && stripeIndex(ops[j-1].v) > stripeIndex(ops[j].v); j-- {
				ops[j-1], ops[j] = ops[j], ops[j-1]
			}
		}
		return
	}
	var next [numStripes]int
	for i := range ops {
		next[stripeIndex(ops[i].v)]++
	}
	sum := 0
	for i := range next {
		next[i], sum = sum, sum+next[i]
	}
	tmpp := tailOpPool.Get().(*[]tailOp)
	tmp := slices.Grow((*tmpp)[:0], len(ops))[:len(ops)]
	for _, op := range ops {
		si := stripeIndex(op.v)
		tmp[next[si]] = op
		next[si]++
	}
	copy(ops, tmp)
	*tmpp = tmp[:0]
	tailOpPool.Put(tmpp)
}

// refLocked returns the live segRef for id, panicking on unknown or removed
// segments. Caller holds segMu.
func (s *Store) refLocked(id SegmentID) segRef {
	if id < 0 || int(id) >= len(s.segs) || !s.segs[id].live {
		panic(fmt.Sprintf("walkstore: unknown segment %d", id))
	}
	return s.segs[id]
}

// pathLocked returns the arena window of a live segment, capacity-clamped so
// callers cannot append into the arena.
func (s *Store) pathLocked(r segRef) []graph.NodeID {
	return s.arena[r.off : r.off+int64(r.n) : r.off+int64(r.n)]
}

// Path returns the segment's node path. The returned slice must not be
// modified, but it is stable: the arena is grow-only and ReplaceTail writes
// revised paths to fresh arena space, so the slice keeps its contents even
// after later mutations of the same segment. This stability is what lets
// concurrent readers (the query layer's splices, the maintainers' scans)
// hold a coherent path with no copy while mutations continue.
func (s *Store) Path(id SegmentID) []graph.NodeID {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.pathLocked(s.refLocked(id))
}

// AppendPaths appends the paths of ids to dst (reset first) under a single
// segment-lock acquisition — the repair scans' bulk fetch, one lock for a
// whole frozen segment set instead of one per segment. The returned slices
// carry Path's stability guarantee.
func (s *Store) AppendPaths(dst [][]graph.NodeID, ids []SegmentID) [][]graph.NodeID {
	dst = dst[:0]
	s.segMu.RLock()
	for _, id := range ids {
		dst = append(dst, s.pathLocked(s.refLocked(id)))
	}
	s.segMu.RUnlock()
	return dst
}

// OwnedBy returns the IDs of segments whose walks start at u, in insertion
// order. The returned slice is a copy.
func (s *Store) OwnedBy(u graph.NodeID) []SegmentID {
	st := s.stripe(u)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(u); ns != nil {
		return append([]SegmentID(nil), ns.owned...)
	}
	return nil
}

// OwnedSided returns the IDs of u's stored segments whose first step has the
// given direction, in insertion order. The returned slice is a copy.
func (s *Store) OwnedSided(u graph.NodeID, side Side) []SegmentID {
	mustDir(side)
	st := s.stripe(u)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(u); ns != nil {
		return append([]SegmentID(nil), ns.ownedSided[side]...)
	}
	return nil
}

// SideOf returns the side a live segment was stored with (Unsided for plain
// reset walks).
func (s *Store) SideOf(id SegmentID) Side {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.refLocked(id).side
}

// PendingVisits returns the number of stored sided visits to v whose pending
// step has direction dir (terminal visits included). Visits pending a
// Backward step are authority-side visits; pending Forward, hub-side.
func (s *Store) PendingVisits(v graph.NodeID, dir Side) int64 {
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.sidedVisits[dir]
	}
	return 0
}

// PendingTerminals returns the number of stored sided segments that end at v
// with a pending step of direction dir — the walks an arriving edge can
// revive when v gains its first edge in that direction.
func (s *Store) PendingTerminals(v graph.NodeID, dir Side) int64 {
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.sidedTerminals[dir]
	}
	return 0
}

// PendingCandidates returns the number of dir-direction steps stored sided
// segments actually take from v (pending visits minus terminals) — the exact
// exponent of the SALSA maintainer's skip coin, the sided analogue of
// Candidates. Both counts are read under v's stripe lock, so the difference
// is a consistent per-node snapshot even while other nodes mutate.
func (s *Store) PendingCandidates(v graph.NodeID, dir Side) int64 {
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.sidedVisits[dir] - ns.sidedTerminals[dir]
	}
	return 0
}

// PendingTotal returns the total number of stored sided visits pending a
// step of direction dir — the normalizer of the global hub (Forward) and
// authority (Backward) score estimates.
func (s *Store) PendingTotal(dir Side) int64 {
	mustDir(dir)
	return s.sidedTotals[dir].Load()
}

// PendingVisitCounts returns a copy of the full pending-visit table for one
// direction, together with its total. Each stripe is read under its own
// lock, so the copy is per-stripe consistent; at a quiescent point it is
// exact, and the total is the sum of the per-stripe shares read under the
// same locks as their counts.
func (s *Store) PendingVisitCounts(dir Side) (counts map[graph.NodeID]int64, total int64) {
	mustDir(dir)
	size := 0
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		size += s.stripes[i].numNodes
		s.stripes[i].mu.RUnlock()
	}
	counts = make(map[graph.NodeID]int64, size)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.each(i, func(v graph.NodeID, ns *nodeState) {
			if x := ns.sidedVisits[dir]; x != 0 {
				counts[v] = x
			}
		})
		total += st.sidedTotals[dir]
		st.mu.RUnlock()
	}
	return counts, total
}

// PendingVisitFraction returns the pending-dir visit count of v together
// with the side total. The count is read under v's stripe lock; the total is
// the atomic global, so under concurrent mutation the ratio has bounded skew
// (at most the mutations in flight) rather than lock-exact consistency.
func (s *Store) PendingVisitFraction(v graph.NodeID, dir Side) (visits, total int64) {
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	if ns := st.node(v); ns != nil {
		visits = ns.sidedVisits[dir]
	}
	st.mu.RUnlock()
	return visits, s.sidedTotals[dir].Load()
}

// Visitors returns the IDs of segments that visit v, ascending. It is
// derived from the pending-position buckets (which hold one entry per
// visit), so it costs a sort over the visit count rather than a table read —
// acceptable for its remaining callers (AppendScannedPositions, W and
// tests); the hot paths consume AppendPendingPositions directly.
func (s *Store) Visitors(v graph.NodeID) []SegmentID {
	st := s.stripe(v)
	st.mu.RLock()
	var ids []SegmentID
	if ns := st.node(v); ns != nil {
		for b := range ns.pending {
			ids = ns.pending[b].appendSegs(ids)
		}
	}
	st.mu.RUnlock()
	slices.Sort(ids)
	return slices.Compact(ids)
}

// W returns the number of distinct segments visiting v — the paper's W(v).
// Derived like Visitors.
func (s *Store) W(v graph.NodeID) int {
	return len(s.Visitors(v))
}

// Visits returns X_v, the total visit count of v across stored segments.
func (s *Store) Visits(v graph.NodeID) int64 {
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.visits
	}
	return 0
}

// Terminals returns T(v), the number of stored segments whose path ends at v.
func (s *Store) Terminals(v graph.NodeID) int64 {
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.terminals
	}
	return 0
}

// Candidates returns X_v - T(v): the number of outgoing walk steps stored
// segments take from v. An edge arriving at source v perturbs the store with
// probability exactly 1-(1-1/d)^Candidates(v), the quantity behind the
// incremental maintainer's skip coin (the paper states the bound with W(v),
// which coincides when segments visit v at most once and never end there).
// Both counts live under v's stripe lock, so the difference is a consistent
// per-node snapshot.
func (s *Store) Candidates(v graph.NodeID) int64 {
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.visits - ns.terminals
	}
	return 0
}

// VisitFraction returns X_v together with the total visit count. The count
// is read under v's stripe lock, the total atomically; see
// PendingVisitFraction for the skew bound under concurrent mutation.
func (s *Store) VisitFraction(v graph.NodeID) (visits, total int64) {
	st := s.stripe(v)
	st.mu.RLock()
	if ns := st.node(v); ns != nil {
		visits = ns.visits
	}
	st.mu.RUnlock()
	return visits, s.totalVisits.Load()
}

// TotalVisits returns the sum of X_v over all nodes (= total stored steps).
func (s *Store) TotalVisits() int64 {
	return s.totalVisits.Load()
}

// VisitCounts returns a copy of the full X_v table, per-stripe consistent
// (exact at quiescent points).
func (s *Store) VisitCounts() map[graph.NodeID]int64 {
	size := 0
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		size += s.stripes[i].numNodes
		s.stripes[i].mu.RUnlock()
	}
	out := make(map[graph.NodeID]int64, size)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.each(i, func(v graph.NodeID, ns *nodeState) {
			if ns.visits != 0 {
				out[v] = ns.visits
			}
		})
		st.mu.RUnlock()
	}
	return out
}

// NumSegments returns the number of stored (live) segments.
func (s *Store) NumSegments() int {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.numLive
}

// ArenaStats reports the arena's live and total node slots. The difference
// is garbage left behind by ReplaceTail/Remove; a future compaction pass can
// reclaim it when the ratio degrades.
func (s *Store) ArenaStats() (live, total int64) {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.liveNodes, int64(len(s.arena))
}

// compactMinGarbageFrac is the garbage fraction below which MaybeCompact
// declines to compact. Compact pays a full copy of the live arena, so a
// periodic trigger that fired unconditionally would repeatedly copy a huge,
// mostly-live arena to reclaim slivers — at large n that costs orders of
// magnitude more than the mutations between triggers.
const compactMinGarbageFrac = 0.25

// MaybeCompact runs Compact only when at least compactMinGarbageFrac of the
// arena is garbage, reporting whether it compacted. The periodic triggers
// (the maintainers' CompactEvery ticks, the window driver) call this
// instead of Compact directly: the tick decides how often the ratio is
// checked, the ratio decides whether a copy is worth it. The check is a
// snapshot — a concurrent mutation may move the ratio before Compact takes
// the segment lock — which costs only a marginally early or late
// compaction, never correctness.
func (s *Store) MaybeCompact() bool {
	live, total := s.ArenaStats()
	if total == 0 || float64(total-live) < compactMinGarbageFrac*float64(total) {
		return false
	}
	s.Compact()
	return true
}

// Compact rewrites every live segment's path into a fresh, densely packed
// arena (in segment-ID order, with arenaCap's headroom behind it) and drops
// the old one, reclaiming the garbage ReplaceTail and Remove leave behind. It changes no logical state: no
// visit moves, no counter changes, Epoch()/StripeEpoch stamps stay put, and
// nothing is written to the mutation log — a compaction commutes with
// replaying the log, so WAL sequence numbers and checkpoint epochs are
// unaffected. The stable-Path contract survives because previously returned
// slices keep pointing into the old arena's backing array, which is never
// written again (the garbage collector retains it while any such slice is
// live); reads after Compact serve the same bytes from the new arena.
// Safe to call concurrently with readers and with mutations of other
// phases — it takes the segment lock exclusively, so no arena write can
// overlap it. Returns the live slot count and the number reclaimed.
func (s *Store) Compact() (live, reclaimed int64) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	old := int64(len(s.arena))
	if old == s.liveNodes {
		return s.liveNodes, 0
	}
	fresh := make([]graph.NodeID, 0, arenaCap(s.liveNodes))
	for i := range s.segs {
		r := &s.segs[i]
		if !r.live {
			continue
		}
		off := int64(len(fresh))
		fresh = append(fresh, s.arena[r.off:r.off+int64(r.n)]...)
		r.off = off
	}
	s.arena = fresh
	return s.liveNodes, old - int64(len(fresh))
}

// arenaCap returns the capacity a freshly built arena gets for live nodes:
// a quarter of headroom, what one append growth step would leave. Load and
// Compact both size their arena with it. Without the headroom the first
// ReplaceTail after either copies the whole arena under the segment lock,
// a stall of tens of milliseconds at bootstrap scale.
func arenaCap(live int64) int64 { return live + live/4 }

// ReplaceTail truncates the segment to its first keep nodes (keep >= 1) and
// appends newTail, updating the visit index. It returns the number of
// removed and added visits, which the maintainer accounts as update work.
// The revised path is written to fresh arena space, so slices previously
// returned by Path keep their old contents (copy-on-truncate). Concurrent
// ReplaceTail/Remove calls on the same segment must be serialized by the
// caller; calls on distinct segments may run concurrently.
func (s *Store) ReplaceTail(id SegmentID, keep int, newTail []graph.NodeID) (removed, added int) {
	old, r, noop := s.relocate(id, keep, newTail)
	if noop {
		return 0, 0
	}
	opsp := tailOpPool.Get().(*[]tailOp)
	ops, removed, added := appendTailOps((*opsp)[:0], id, keep, newTail, old, r)
	s.applyTailOps(ops)
	*opsp = ops[:0]
	tailOpPool.Put(opsp)
	s.epoch.Add(1)
	s.mutators.Add(-1)
	return removed, added
}

// appendTailOps appends one tail replacement's counter/index ops in the
// canonical order: terminal hand-off (when the endpoint moved), sided
// terminal hand-off, visit removals descending from the old end down to
// keep, then tail additions ascending. Returns ops plus the removed/added
// visit counts. old and r are the pre-relocation path and ref.
func appendTailOps(ops []tailOp, id SegmentID, keep int, newTail []graph.NodeID, old []graph.NodeID, r segRef) (_ []tailOp, removed, added int) {
	n := keep + len(newTail)
	newEnd := old[keep-1]
	if len(newTail) > 0 {
		newEnd = newTail[len(newTail)-1]
	}
	oldEnd := old[r.n-1]
	if oldEnd != newEnd {
		ops = append(ops,
			tailOp{id: id, v: oldEnd, kind: tailTermDec, side: r.side},
			tailOp{id: id, v: newEnd, kind: tailTermInc, side: r.side})
	}
	if r.side >= 0 {
		oldD := r.side.PendingAt(int(r.n) - 1)
		newD := r.side.PendingAt(n - 1)
		if oldEnd != newEnd || oldD != newD {
			ops = append(ops,
				tailOp{id: id, v: oldEnd, kind: tailSidedDec, d: oldD, side: r.side},
				tailOp{id: id, v: newEnd, kind: tailSidedInc, d: newD, side: r.side})
		}
	}
	for pos := int(r.n) - 1; pos >= keep; pos-- {
		ops = append(ops, tailOp{id: id, v: old[pos], pos: int32(pos), kind: tailVisitRemove, side: r.side})
		removed++
	}
	for i, v := range newTail {
		ops = append(ops, tailOp{id: id, v: v, pos: int32(keep + i), kind: tailVisitAdd, side: r.side})
		added++
	}
	return ops, removed, added
}

// TailMutation is one deferred tail replacement: truncate segment ID to its
// first Keep nodes (Keep >= 1) and append NewTail.
type TailMutation struct {
	ID      SegmentID
	Keep    int
	NewTail []graph.NodeID
}

// relocated carries one batch entry's arena-phase result into the op-build
// phase; a no-op entry keeps old == nil.
type relocated struct {
	old []graph.NodeID
	r   segRef
}

var relocPool = sync.Pool{New: func() any { b := make([]relocated, 0, 16); return &b }}

// ReplaceTailBatch applies a sequence of tail replacements as one bulk
// mutation. The arena rewrites and mutation-log records of the whole batch
// land under a single segment-lock acquisition, in slice order, so the log
// reads exactly as if the calls had been sequential; the counter and
// pending-index updates are then grouped so each touched counter stripe
// pays one lock acquisition (and one StripeEpoch bump) for all of the
// batch's positions instead of one per mutation. The resulting store state
// — index bucket bytes included — is identical to calling ReplaceTail once
// per entry in order, and the epoch advances by the number of non-no-op
// entries exactly as the sequential calls would have. Entries may span
// segments of different sides, and mutating the same segment twice in one
// batch is legal (later entries see earlier ones' effects). Like
// ReplaceTail, concurrent mutations of any segment in the batch must be
// serialized by the caller. Returns the batch's total removed and added
// visit counts.
func (s *Store) ReplaceTailBatch(muts []TailMutation) (removed, added int) {
	if len(muts) == 0 {
		return 0, 0
	}
	if len(muts) == 1 {
		return s.ReplaceTail(muts[0].ID, muts[0].Keep, muts[0].NewTail)
	}
	relp := relocPool.Get().(*[]relocated)
	rel := (*relp)[:0]
	nonNoops := 0
	s.segMu.Lock()
	func() {
		defer s.segMu.Unlock()
		for i := range muts {
			m := &muts[i]
			old, r, noop := s.relocateLocked(m.ID, m.Keep, m.NewTail)
			if noop {
				rel = append(rel, relocated{})
				continue
			}
			if nonNoops == 0 {
				s.mutators.Add(1)
			}
			nonNoops++
			rel = append(rel, relocated{old: old, r: r})
		}
	}()
	if nonNoops == 0 {
		*relp = rel[:0]
		relocPool.Put(relp)
		return 0, 0
	}
	opsp := tailOpPool.Get().(*[]tailOp)
	ops := (*opsp)[:0]
	for i := range muts {
		re := &rel[i]
		if re.old == nil {
			continue
		}
		m := &muts[i]
		var rm, ad int
		ops, rm, ad = appendTailOps(ops, m.ID, m.Keep, m.NewTail, re.old, re.r)
		removed += rm
		added += ad
	}
	s.applyTailOps(ops)
	*opsp = ops[:0]
	tailOpPool.Put(opsp)
	*relp = rel[:0]
	relocPool.Put(relp)
	s.epoch.Add(int64(nonNoops))
	s.mutators.Add(-1)
	return removed, added
}

// relocate performs ReplaceTail's arena phase under the segment lock: it
// validates the request and, unless it is a no-op, writes prefix copy plus
// new tail at the arena's end and repoints the segment. The returned old
// path is the pre-relocation arena window — never written again, so reading
// it after the lock drops is safe.
func (s *Store) relocate(id SegmentID, keep int, newTail []graph.NodeID) (old []graph.NodeID, r segRef, noop bool) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	old, r, noop = s.relocateLocked(id, keep, newTail)
	if !noop {
		s.mutators.Add(1)
	}
	return old, r, noop
}

// relocateLocked is relocate's body for a caller already holding segMu; the
// caller owns the in-flight mutator accounting (a batch counts once).
func (s *Store) relocateLocked(id SegmentID, keep int, newTail []graph.NodeID) (old []graph.NodeID, r segRef, noop bool) {
	r = s.refLocked(id)
	if keep < 1 || keep > int(r.n) {
		panic(fmt.Sprintf("walkstore: ReplaceTail keep=%d out of range for len=%d", keep, r.n))
	}
	if keep == int(r.n) && len(newTail) == 0 {
		return nil, r, true
	}
	old = s.pathLocked(r)
	off := int64(len(s.arena))
	s.arena = append(s.arena, old[:keep]...)
	s.arena = append(s.arena, newTail...)
	n := keep + len(newTail)
	s.segs[id] = segRef{off: off, n: int32(n), side: r.side, live: true}
	s.liveNodes += int64(n) - int64(r.n)
	if s.mlog != nil {
		end := off + int64(n)
		s.mlog.LogReplaceTail(id, keep, s.arena[off+int64(keep):end:end])
	}
	return old, r, false
}

// Remove deletes a segment entirely, unwinding its visits. Used when a node
// is retired or a maintainer is rebuilt. The ID is not reused. Like
// ReplaceTail, concurrent mutations of the same segment must be serialized
// by the caller.
func (s *Store) Remove(id SegmentID) {
	p, r := s.retire(id)
	opsp := tailOpPool.Get().(*[]tailOp)
	ops := (*opsp)[:0]
	ops = append(ops, tailOp{id: id, v: p[len(p)-1], kind: tailTermDec, side: r.side})
	if r.side >= 0 {
		ops = append(ops, tailOp{id: id, v: p[len(p)-1], kind: tailSidedDec, d: r.side.PendingAt(len(p) - 1), side: r.side})
	}
	for pos := len(p) - 1; pos >= 0; pos-- {
		ops = append(ops, tailOp{id: id, v: p[pos], pos: int32(pos), kind: tailVisitRemove, side: r.side})
	}
	s.applyTailOps(ops)
	*opsp = ops[:0]
	tailOpPool.Put(opsp)
	src := p[0]
	st := s.stripe(src)
	st.mu.Lock()
	s.touchStripeLocked(st)
	if ns := st.node(src); ns != nil {
		if i := slices.Index(ns.owned, id); i >= 0 {
			ns.owned = slices.Delete(ns.owned, i, i+1)
		}
		if r.side >= 0 {
			if i := slices.Index(ns.ownedSided[r.side], id); i >= 0 {
				ns.ownedSided[r.side] = slices.Delete(ns.ownedSided[r.side], i, i+1)
			}
		}
		st.maybeDelete(src, ns)
	}
	st.mu.Unlock()
	s.epoch.Add(1)
	s.mutators.Add(-1)
}

// retire performs Remove's segment-table phase under the segment lock,
// returning the (stable, still-readable) path and ref of the now-dead
// segment.
func (s *Store) retire(id SegmentID) ([]graph.NodeID, segRef) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	r := s.refLocked(id)
	s.mutators.Add(1)
	p := s.pathLocked(r)
	s.segs[id].live = false
	s.numLive--
	s.liveNodes -= int64(r.n)
	if s.mlog != nil {
		s.mlog.LogRemove(id)
	}
	return p, r
}

// Validate checks the visit counters, pending-position index, arena
// references, per-stripe residency, and the per-stripe total shares against
// the stored paths. O(total path length); for tests.
//
// Validate is only meaningful on a consistent store, and it enforces that
// itself: it acquires the segment lock plus every counter stripe (blocking
// new mutations for the duration), then checks the in-flight mutation count.
// A mutation caught between its arena phase and its counter updates holds no
// lock, so without the check it would be indistinguishable from corruption;
// with it, Validate fails loudly with ErrConcurrentMutation (wrapped, test
// with errors.Is) instead of reporting a bogus mismatch. Callers that cannot
// guarantee quiescence may also bracket Validate with Epoch() reads to learn
// how much the store moved around the pass.
func (s *Store) Validate() error {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		defer s.stripes[i].mu.RUnlock()
	}
	// With segMu and every stripe held, a mutation can neither start (the
	// arena phase needs segMu) nor advance (counter updates need a stripe),
	// so a non-zero count here is definitive, not transient.
	if n := s.mutators.Load(); n != 0 {
		return fmt.Errorf("%w: %d segment mutations in flight", ErrConcurrentMutation, n)
	}
	// Every slot, live or dead, was created by an add that advanced the
	// epoch.
	if e := s.epoch.Load(); e < int64(len(s.segs)) {
		return fmt.Errorf("walkstore: epoch %d is below the %d segment slots", e, len(s.segs))
	}

	// The recount keeps one record per node. Segments are walked in ID
	// order and each path front to back, so every recounted pending slice
	// comes out sorted by (seg, pos), ready for a linear comparison with
	// its bucket's runs.
	recount := make(map[graph.NodeID]*nodeRecount)
	at := func(v graph.NodeID) *nodeRecount {
		w := recount[v]
		if w == nil {
			w = new(nodeRecount)
			recount[v] = w
		}
		return w
	}
	var wantSidedTotals [2]int64
	var total, live int64
	numLive := 0
	for i := range s.segs {
		r := s.segs[i]
		if !r.live {
			continue
		}
		numLive++
		id := SegmentID(i)
		if r.n <= 0 {
			return fmt.Errorf("walkstore: segment %d has empty path", id)
		}
		if r.off < 0 || r.off+int64(r.n) > int64(len(s.arena)) {
			return fmt.Errorf("walkstore: segment %d ref (%d,%d) outside arena of %d", id, r.off, r.n, len(s.arena))
		}
		p := s.pathLocked(r)
		live += int64(len(p))
		end := at(p[len(p)-1])
		end.terminals++
		for pos, v := range p {
			w := at(v)
			w.visits++
			total++
			if r.side >= 0 {
				d := r.side.PendingAt(pos)
				w.sidedVisits[d]++
				wantSidedTotals[d]++
			}
			b := pendingBucket(r.side, pos)
			w.pending[b] = append(w.pending[b], packEntry(id, int32(pos)))
		}
		if r.side >= 0 {
			end.sidedTerminals[r.side.PendingAt(len(p)-1)]++
			ns := s.stripe(p[0]).node(p[0])
			if ns == nil || !slices.Contains(ns.ownedSided[r.side], id) {
				return fmt.Errorf("walkstore: segment %d missing from sided owner index of node %d", id, p[0])
			}
		}
		ns := s.stripe(p[0]).node(p[0])
		if ns == nil || !slices.Contains(ns.owned, id) {
			return fmt.Errorf("walkstore: segment %d missing from owner index of node %d", id, p[0])
		}
	}
	if numLive != s.numLive {
		return fmt.Errorf("walkstore: numLive=%d want %d", s.numLive, numLive)
	}
	if live != s.liveNodes {
		return fmt.Errorf("walkstore: liveNodes=%d want %d", s.liveNodes, live)
	}
	if got := s.totalVisits.Load(); got != total {
		return fmt.Errorf("walkstore: totalVisits=%d want %d", got, total)
	}

	// Per-stripe checks: residency (a node's state lives in the stripe and
	// slot its ID selects), counter exactness, and the stripe total shares
	// summing to the atomic globals.
	var stripeTotal, stripeEpochSum int64
	var stripeSided [2]int64
	var nodeErr error
	for i := range s.stripes {
		st := &s.stripes[i]
		stripeTotal += st.totalVisits
		stripeEpochSum += st.epoch.Load()
		for d := 0; d < 2; d++ {
			stripeSided[d] += st.sidedTotals[d]
		}
		numNodes := 0
		st.each(i, func(v graph.NodeID, ns *nodeState) {
			numNodes++
			if nodeErr != nil {
				return
			}
			nodeErr = func() error {
				if stripeIndex(v) != i {
					return fmt.Errorf("walkstore: node %d state resident in stripe %d, want %d", v, i, stripeIndex(v))
				}
				if uint64(v) >= denseLimit {
					if _, ok := st.sparse[v]; !ok {
						return fmt.Errorf("walkstore: node %d outside dense range but not in sparse table", v)
					}
				}
				if ns.empty() {
					return fmt.Errorf("walkstore: drained node state retained for node %d", v)
				}
				want := recount[v]
				if want == nil {
					want = new(nodeRecount)
				}
				if ns.visits != want.visits {
					return fmt.Errorf("walkstore: visits[%d]=%d want %d", v, ns.visits, want.visits)
				}
				// The pending buckets double as the inverted visitor index
				// (one entry per visit); their exact-set check below subsumes
				// a separate per-segment multiplicity check.
				var pendingN int
				for b := 0; b < pendingBuckets; b++ {
					pendingN += ns.pending[b].n
				}
				if int64(pendingN) != ns.visits {
					return fmt.Errorf("walkstore: node %d has %d pending entries for %d visits", v, pendingN, ns.visits)
				}
				if ns.terminals != want.terminals {
					return fmt.Errorf("walkstore: terminals[%d]=%d want %d", v, ns.terminals, want.terminals)
				}
				for d := 0; d < 2; d++ {
					if ns.sidedVisits[d] != want.sidedVisits[d] {
						return fmt.Errorf("walkstore: sidedVisits[%d][%d]=%d want %d", d, v, ns.sidedVisits[d], want.sidedVisits[d])
					}
					if ns.sidedTerminals[d] != want.sidedTerminals[d] {
						return fmt.Errorf("walkstore: sidedTerminals[%d][%d]=%d want %d", d, v, ns.sidedTerminals[d], want.sidedTerminals[d])
					}
				}
				for b := 0; b < pendingBuckets; b++ {
					if err := validatePosIndex(b, v, &ns.pending[b], want.pending[b]); err != nil {
						return err
					}
				}
				return nil
			}()
		})
		if nodeErr != nil {
			return nodeErr
		}
		if numNodes != st.numNodes {
			return fmt.Errorf("walkstore: stripe %d tracks %d nodes, found %d", i, st.numNodes, numNodes)
		}
	}
	// Every node the store keeps matched its recount above, so what is
	// left is a node the paths visit that keeps no state.
	for v := range recount {
		if s.stripe(v).node(v) == nil {
			return fmt.Errorf("walkstore: node %d is visited by stored paths but keeps no state", v)
		}
	}
	if stripeTotal != total {
		return fmt.Errorf("walkstore: per-stripe visit shares sum to %d, want %d", stripeTotal, total)
	}
	// Per-stripe epoch cross-check: every mutating stripe acquisition bumps
	// its stripe's epoch and the global touch counter as a pair, so a
	// mutation path that forgot one of the bumps breaks this sum.
	if got := s.stripeTouches.Load(); stripeEpochSum != got {
		return fmt.Errorf("walkstore: per-stripe epochs sum to %d, want %d mutating stripe acquisitions", stripeEpochSum, got)
	}
	for d := 0; d < 2; d++ {
		if stripeSided[d] != wantSidedTotals[d] {
			return fmt.Errorf("walkstore: per-stripe sided shares %d sum to %d, want %d", d, stripeSided[d], wantSidedTotals[d])
		}
		if got := s.sidedTotals[d].Load(); got != wantSidedTotals[d] {
			return fmt.Errorf("walkstore: sidedTotals[%d]=%d want %d", d, got, wantSidedTotals[d])
		}
	}
	return nil
}

// ValidateSteps checks every stored step against the caller's edge
// predicate: step pos -> pos+1 of an unsided or forward-pending position must
// traverse an edge path[pos] -> path[pos+1] of the caller's graph, a
// backward-pending step the reverse edge. This is the deletion-path
// invariant — after any sequence of arrivals and deletions, no stored walk
// may traverse an edge that no longer exists (the reverse reroute rule
// resamples with probability 1 when the last copy of an edge goes away).
// Like Validate it requires quiescence and fails with ErrConcurrentMutation
// on a raced pass. O(total path length) plus one predicate call per step;
// for tests.
func (s *Store) ValidateSteps(hasEdge func(from, to graph.NodeID) bool) error {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		defer s.stripes[i].mu.RUnlock()
	}
	if n := s.mutators.Load(); n != 0 {
		return fmt.Errorf("%w: %d segment mutations in flight", ErrConcurrentMutation, n)
	}
	for i := range s.segs {
		r := s.segs[i]
		if !r.live {
			continue
		}
		p := s.pathLocked(r)
		for pos := 0; pos < len(p)-1; pos++ {
			from, to := p[pos], p[pos+1]
			if r.side >= 0 && r.side.PendingAt(pos) == SideBackward {
				from, to = to, from
			}
			if !hasEdge(from, to) {
				return fmt.Errorf("walkstore: segment %d step %d traverses missing edge %d->%d", i, pos, from, to)
			}
		}
	}
	return nil
}

// nodeRecount is Validate's recount of one node from the stored paths: the
// counters nodeState keeps and, per bucket, the packed pending-position
// entries in (seg, pos) order.
type nodeRecount struct {
	visits, terminals           int64
	sidedVisits, sidedTerminals [2]int64
	pending                     [pendingBuckets][]uint64
}

// validatePosIndex cross-checks one node's pending-position bucket against
// its recount want (sorted packed entries): the run invariants (non-empty,
// at most runCap long, strictly increasing within and across runs, lengths
// summing to n), then the entry count, then the exact entry set.
func validatePosIndex(b int, v graph.NodeID, px *posIndex, want []uint64) error {
	sum := 0
	var prev uint64
	for i, r := range px.runs {
		if len(r) == 0 || len(r) > runCap {
			return fmt.Errorf("walkstore: pending[%d][%d] run %d has %d entries, want 1..%d", b, v, i, len(r), runCap)
		}
		for j, e := range r {
			if (i > 0 || j > 0) && prev >= e {
				return fmt.Errorf("walkstore: pending[%d][%d] not strictly sorted at run %d entry %d", b, v, i, j)
			}
			prev = e
		}
		sum += len(r)
	}
	if sum != px.n {
		return fmt.Errorf("walkstore: pending[%d][%d] runs hold %d entries, n=%d", b, v, sum, px.n)
	}
	if px.n != len(want) {
		return fmt.Errorf("walkstore: pending[%d][%d] has %d entries, want %d", b, v, px.n, len(want))
	}
	k := 0
	for _, r := range px.runs {
		for _, e := range r {
			if e != want[k] {
				if e < want[k] {
					h := unpackEntry(e)
					return fmt.Errorf("walkstore: pending[%d][%d] has stale entry (%d,%d)", b, v, h.Seg, h.Pos)
				}
				h := unpackEntry(want[k])
				return fmt.Errorf("walkstore: pending[%d][%d] misses entry (%d,%d)", b, v, h.Seg, h.Pos)
			}
			k++
		}
	}
	return nil
}
