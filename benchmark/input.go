package main

import (
	"math/rand/v2"
	"time"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
)

// The shared input is the paper's arrival model: the edges of a fixed
// preferential-attachment graph arrive in uniformly random order. The first
// half builds the starting graph; the second half is the future, folded into
// grow/shrink phases so deletions interleave with arrivals.
//
// The graph, its starting half and the set of future arrivals a run consumes
// come from graphSeed; the workload seed draws the order in which those
// arrivals come (and, downstream, the deletions and query sources). The
// stream stays a uniformly random order of the graph's edges. A few arrivals
// at low-degree hubs cost thousands of reroutes each, so letting the seed
// pick which arrivals a run sees, or which hubs start dangling, moves the
// repair cost per event by 20% or more and buries a program change under
// input variance.
const (
	graphSeed      = 1
	paperNodes     = 100_000
	paperOutDegree = 10
	prefixShare    = 0.5
	foldPhases     = 4
	foldShrink     = 0.3
)

// paperInput is one seed's starting graph and its future arrivals.
type paperInput struct {
	graph  *graph.Graph
	suffix []graph.Edge
	genS   float64 // generation: graph, permutation, split
	buildS float64 // building the starting graph
}

// makeInput builds the starting graph and the first `arrivals` future
// arrivals, in the seed's order.
func makeInput(seed uint64, arrivals int) *paperInput {
	t0 := time.Now()
	rng := rand.New(rand.NewPCG(graphSeed, 0x7061706572))
	full := gen.PreferentialAttachment(paperNodes, paperOutDegree, rng)
	prefix, suffix := gen.SplitStream(gen.RandomPermutationStream(full, rng), prefixShare)
	suffix = suffix[:min(arrivals, len(suffix))]
	order := rand.New(rand.NewPCG(seed, 0x0dde))
	order.Shuffle(len(suffix), func(i, j int) { suffix[i], suffix[j] = suffix[j], suffix[i] })
	t1 := time.Now()
	g := graph.New(paperNodes)
	for v := 0; v < paperNodes; v++ {
		g.AddNode(graph.NodeID(v))
	}
	for _, e := range prefix {
		g.AddEdge(e.From, e.To)
	}
	return &paperInput{graph: g, suffix: suffix, genS: t1.Sub(t0).Seconds(), buildS: time.Since(t1).Seconds()}
}

// eventFeed hands out the event stream: successive slices of `round`
// arrivals, each folded through gen.ShrinkGrowStream, so every completed
// round runs all four grow/shrink phases and only deletes edges its own
// arrivals added (no deletion can miss when the stream is applied in order).
type eventFeed struct {
	suffix    []graph.Edge
	round     int
	rng       *rand.Rand
	pending   []graph.Event
	Arrivals  int64 // handed out
	Deletions int64
}

// arrivalsFor is how many arrivals a feed folding `round` arrivals at a time
// needs to hand out `events` events: a fold yields about 1.55 events per
// arrival (each of 4 phases deletes 30% of the live edges), in whole rounds,
// with one to two rounds of slack for the rounding.
func arrivalsFor(events int64, round int) int {
	return (int(events*100/155)/round + 2) * round
}

func newEventFeed(in *paperInput, seed uint64, round int) *eventFeed {
	return &eventFeed{suffix: in.suffix, round: round, rng: rand.New(rand.NewPCG(seed, 0xf01d))}
}

// next returns up to k events, or none once the suffix is used up.
func (f *eventFeed) next(k int) []graph.Event {
	if len(f.pending) == 0 && len(f.suffix) > 0 {
		n := min(f.round, len(f.suffix))
		f.pending = gen.ShrinkGrowStream(f.suffix[:n], foldPhases, foldShrink, f.rng)
		f.suffix = f.suffix[n:]
	}
	k = min(k, len(f.pending))
	out := f.pending[:k]
	f.pending = f.pending[k:]
	for _, ev := range out {
		if ev.Del {
			f.Deletions++
		} else {
			f.Arrivals++
		}
	}
	return out
}
