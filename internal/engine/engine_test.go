package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

func buildTestGraph(n, d int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0))
	return gen.PreferentialAttachment(n, d, rng)
}

func TestBuildStoreCounts(t *testing.T) {
	g := buildTestGraph(500, 4, 1)
	nodes := g.Nodes()
	const r = 3
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.25, R: r, Workers: 4, Batch: 32, Seed: 7})
	steps := eng.BuildStore(nodes)
	if got, want := store.NumSegments(), len(nodes)*r; got != want {
		t.Fatalf("NumSegments=%d want %d", got, want)
	}
	if steps != store.TotalVisits() {
		t.Fatalf("reported steps=%d, store holds %d visits", steps, store.TotalVisits())
	}
	for _, v := range nodes {
		if got := len(store.OwnedBy(v)); got != r {
			t.Fatalf("node %d owns %d segments, want %d", v, got, r)
		}
		for _, id := range store.OwnedBy(v) {
			if p := store.Path(id); p[0] != v {
				t.Fatalf("segment %d owned by %d starts at %d", id, v, p[0])
			}
		}
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildStoreSegmentLengths checks the parallel engine draws the same
// geometric length law as the sequential walker.
func TestBuildStoreSegmentLengths(t *testing.T) {
	// A cycle gives every node out-degree 1, so lengths are purely the
	// reset coin.
	g := graph.New(0)
	const n = 200
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	const eps = 0.2
	const r = 50
	store := walkstore.New()
	eng := New(g, store, Config{Eps: eps, R: r, Workers: 3, Seed: 3})
	steps := eng.BuildStore(g.Nodes())
	mean := float64(steps) / float64(n*r)
	if math.Abs(mean-1/eps) > 0.15 {
		t.Fatalf("mean segment length %.3f, want %.3f +- 0.15", mean, 1/eps)
	}
}

// TestBuildStoreDeterministicAcrossWorkerCounts pins the per-chunk RNG
// derivation: the same seed must generate the same walks (hence the same
// per-node visit counts) no matter how many workers run.
func TestBuildStoreDeterministicAcrossWorkerCounts(t *testing.T) {
	g := buildTestGraph(600, 3, 2)
	nodes := g.Nodes()
	run := func(workers int) map[graph.NodeID]int64 {
		store := walkstore.New()
		eng := New(g, store, Config{Eps: 0.2, R: 2, Workers: workers, Seed: 5})
		eng.BuildStore(nodes)
		return store.VisitCounts()
	}
	a, b, c := run(1), run(4), run(4)
	for v, x := range a {
		if b[v] != x || c[v] != x {
			t.Fatalf("visit counts diverge at node %d: w1=%d w4=%d w4'=%d", v, x, b[v], c[v])
		}
	}
	if len(b) != len(a) || len(c) != len(a) {
		t.Fatalf("visit table sizes diverge: %d vs %d vs %d", len(a), len(b), len(c))
	}
}

// TestConcurrentBuildAndUpdateStress races segment generation against edge
// arrivals into the graph it samples and against store reads; run under
// -race. Arrivals only add edges, so every stored step must still be an edge
// once both finish.
func TestConcurrentBuildAndUpdateStress(t *testing.T) {
	g := buildTestGraph(200, 3, 6)
	nodes := g.Nodes()
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.25, R: 2, Workers: 2, Seed: 21})

	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.BuildStore(nodes)
	}()
	go func() {
		rng := rand.New(rand.NewPCG(31, 0))
		for added := 0; added < 300; {
			u := graph.NodeID(rng.IntN(200))
			v := graph.NodeID(rng.IntN(200))
			if u != v {
				g.AddEdge(u, v)
				added++
			}
		}
	}()
	// Concurrent readers over the store while the build runs.
	rng := rand.New(rand.NewPCG(33, 0))
	for i := 0; i < 2000; i++ {
		v := nodes[rng.IntN(len(nodes))]
		store.Visits(v)
		store.W(v)
		for _, id := range store.OwnedBy(v) {
			_ = store.Path(id)
		}
	}
	<-done
	if got, want := store.NumSegments(), 2*len(nodes); got != want {
		t.Fatalf("NumSegments=%d want %d", got, want)
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := store.ValidateSteps(g.HasEdge); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Eps=0")
		}
	}()
	New(g, walkstore.New(), Config{Eps: 0})
}
