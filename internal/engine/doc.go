// Package engine generates the paper's R reset-walk segments per node with
// a worker pool: full-store construction, the preprocessing step of Section
// 2.2, run once before the stream starts (pagerank.Maintainer.Bootstrap is
// its caller). It is bootstrap-only; every update — arrivals, deletions and
// sliding windows, which are event streams (graph.WindowEvents) — goes
// through the maintainers, see docs/DESIGN.md#1-data-flow.
//
// Design notes. Each worker owns a graph.Batcher and a set of reusable path
// buffers, so the steady state allocates nothing per segment. Nodes are
// claimed in fixed-size chunks, each walked with its own PCG(Seed, chunk)
// source. Segment generation runs as a lockstep burst: up to Batch walkers
// advance together, one shard-grouped sampling call per round, and finished
// bursts are appended to a flat per-chunk walkstore.Batch; one
// walkstore.Load stores every chunk, in chunk order, once all are walked
// (docs/DESIGN.md#11-batching--compaction), so the walks and their segment
// IDs do not depend on the worker count.
package engine
