// Package graph provides a dynamic directed multigraph with O(1) random
// neighbor sampling — the substrate every random-walk component in this
// reproduction of Bahmani, Chowdhury & Goel, "Fast Incremental and
// Personalized PageRank" (PVLDB 2010) stands on. It plays the role of the
// social graph G = (V, E) of the paper's Section 2, with the random
// out-neighbor (and, for SALSA, in-neighbor) access the Monte Carlo walkers
// of Sections 2.1-2.3 perform billions of times.
//
// The graph supports concurrent readers and writers. Node IDs are opaque
// 64-bit integers, matching the ID space of a large social network.
// Adjacency is stored as append-only slices with swap-delete removal, so a
// uniformly random neighbor is a single slice index.
//
// To keep that hot path scalable the adjacency rows are partitioned by the
// node ID's low bits into a power-of-two number of lock-striped shards, and
// within a shard rows for dense IDs (the normal case — every generator and
// the production allocator assign 0..n-1) live in a flat slot array, so a
// degree read or neighbor pick is a slice index rather than a map lookup;
// walkers whose current nodes land on different shards never contend, and a
// Batcher amortizes even the uncontended lock acquisition over a whole
// burst of lockstep walkers. Operations that need a consistent global view (Edges,
// Clone, Validate, RandomEdge) lock every shard in index order. The shard
// locks are the leaf level of the system-wide lock order
// (docs/DESIGN.md#6-concurrency-model); the graph's place in the data flow
// is docs/DESIGN.md#1-data-flow.
//
// The graph shrinks as well as grows: RemoveEdge deletes one copy of a
// multigraph edge by swap-delete (first occurrence, so typed replay of an
// event stream reproduces adjacency row order bitwise), the primitive
// under the reverse reroute rule of docs/DESIGN.md#10-deletions--windows.
// Event tags an edge as an arrival or a deletion for mixed churn streams,
// and Window is the fixed-capacity FIFO ring behind WindowEvents, which
// turns an arrival stream into a sliding window's event stream: each
// arrival followed by the expiry it forces.
package graph
