package pagerank

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastppr/internal/exact"
	"fastppr/internal/gen"
	"fastppr/internal/graph"
)

// validateAll runs the full store recount plus the deletion invariant: after
// any churn no stored step may traverse a missing edge.
func validateAll(t *testing.T, mt *Maintainer) {
	t.Helper()
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	g := mt.Social().Graph()
	if err := mt.Store().ValidateSteps(g.HasEdge); err != nil {
		t.Fatal(err)
	}
}

// TestConvergesToOracleOnShrinkGrowStream is the deletion-side ground-truth
// test: stream interleaved grow and shrink phases through the maintainer and
// require the estimates on the churned graph to match exact power iteration
// on the final graph — the reverse reroute rule keeps the stored walks
// distributed as fresh walks on whatever graph survives.
func TestConvergesToOracleOnShrinkGrowStream(t *testing.T) {
	n, m, r := 100, 3000, 100
	if testing.Short() {
		n, m, r = 60, 1200, 60
	}
	const eps = 0.2
	mt, soc := newMaintainer(n, Config{Eps: eps, R: r, Workers: 4, Seed: 31})
	mt.Bootstrap()

	rng := rand.New(rand.NewPCG(32, 0))
	arrivals := gen.DirichletStream(n, m, rng)
	events := gen.ShrinkGrowStream(arrivals, 6, 0.3, rng)
	mt.ApplyEvents(events)

	validateAll(t, mt)
	cnt := mt.Counters()
	if cnt.Deletions == 0 || cnt.DelRerouted == 0 {
		t.Fatalf("shrink phases did no deletion work: %+v", cnt)
	}
	if cnt.DelMisses != 0 {
		t.Fatalf("DelMisses=%d on an in-order only-live churn stream", cnt.DelMisses)
	}
	if cnt.SlowNoops != 0 {
		t.Fatalf("SlowNoops=%d, want 0", cnt.SlowNoops)
	}

	pi := exact.PageRank(soc.Graph(), eps, oracleTol)
	got := mt.ApproxAll()
	// Observed ~0.06 at these fixed seeds; ~3x headroom.
	if d := exact.L1(got, pi); d > 0.18 {
		t.Fatalf("L1(maintainer, oracle)=%v exceeds tolerance", d)
	}
	for v, x := range got {
		if math.IsNaN(x) || x < 0 {
			t.Fatalf("estimate[%d]=%v", v, x)
		}
	}
}

// TestDeletionLegacyScanBitwise extends the bitwise legacy/indexed pin to the
// deletion path: a fixed-seed serialized churn storm must produce identical
// estimates and counters with the pending-position index on and off, because
// both unroute flavors enumerate the same (segment, position) candidates and
// draw the same coin stream.
func TestDeletionLegacyScanBitwise(t *testing.T) {
	n, m := 120, 900
	if testing.Short() {
		n, m = 70, 400
	}
	run := func(legacy bool) (map[graph.NodeID]float64, Counters) {
		mt, _ := newMaintainer(n, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 41, LegacyScan: legacy})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(42, 0))
		events := gen.PowerLawChurnStream(n, m, 0.8, 0.35, rng)
		mt.ApplyEvents(events)
		validateAll(t, mt)
		return mt.ApproxAll(), mt.Counters()
	}

	gotIdx, cntIdx := run(false)
	gotLeg, cntLeg := run(true)
	if cntIdx != cntLeg {
		t.Fatalf("counters diverged:\nindexed %+v\nlegacy  %+v", cntIdx, cntLeg)
	}
	if cntIdx.Deletions == 0 {
		t.Fatal("churn stream produced no deletions")
	}
	if cntIdx.SlowNoops != 0 {
		t.Fatalf("SlowNoops=%d, want 0", cntIdx.SlowNoops)
	}
	if len(gotIdx) != len(gotLeg) {
		t.Fatalf("estimate vectors differ in size: %d vs %d", len(gotIdx), len(gotLeg))
	}
	for v, x := range gotLeg {
		if gotIdx[v] != x {
			t.Fatalf("estimate[%d]=%v indexed, %v legacy", v, gotIdx[v], x)
		}
	}
}

// TestDegenerateDeletions sweeps the deletion edge cases: the reverse revival
// (last out-edge gone), edges never walked, deletion before any walks exist,
// and delete-then-re-add. Nothing may panic or produce NaN, and the store
// invariants must hold after every case.
func TestDegenerateDeletions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"last out-edge truncates", func(t *testing.T) {
			// 0 -> 1 is node 0's only out-edge; every bootstrap walk from 0
			// steps through it. Deleting it must truncate them all at 0.
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 20, Workers: 1, Seed: 1})
			soc.AddEdge(0, 1)
			soc.AddEdge(1, 2)
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.DelTruncated == 0 {
				t.Fatalf("no reverse revival recorded: %+v", cnt)
			}
			if cnt.DelRerouted != 0 {
				t.Fatalf("rerouted through a surviving edge that does not exist: %+v", cnt)
			}
			// Walks from 0 now terminate at 0; mass past the cut is gone.
			if est := mt.Estimate(0); math.IsNaN(est) || est <= 0 {
				t.Fatalf("estimate(0)=%v", est)
			}
		}},
		{"never-walked edge is cheap", func(t *testing.T) {
			// 1 is dangling at bootstrap, so every walk reaching it stops
			// there — node 1's stored hits are all terminal. Slipping 1 -> 2
			// into the graph behind the maintainer's back (no arrival repair)
			// then deleting it exercises a scan with hits but zero
			// candidates: no coin, no repair, just the removal.
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 10, Workers: 1, Seed: 2})
			soc.AddEdge(0, 1)
			mt.Bootstrap()
			soc.AddEdge(1, 2)
			before := mt.Counters()
			mt.ApplyDeletion(graph.Edge{From: 1, To: 2})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Deletions != before.Deletions+1 {
				t.Fatalf("deletion not counted: %+v", cnt)
			}
			if cnt.DelRerouted != before.DelRerouted || cnt.DelTruncated != before.DelTruncated {
				t.Fatalf("repair work on a walked-free edge: %+v", cnt)
			}
		}},
		{"never-bootstrapped store", func(t *testing.T) {
			// No Bootstrap: the walk store is empty. The deletion must still
			// remove the edge and count itself without touching segments.
			mt, soc := newMaintainer(2, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 3})
			soc.AddEdge(0, 1)
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			if soc.Graph().HasEdge(0, 1) {
				t.Fatal("edge survived deletion")
			}
			cnt := mt.Counters()
			if cnt.Deletions != 1 || cnt.DelMisses != 0 || cnt.DelRerouted != 0 || cnt.DelTruncated != 0 {
				t.Fatalf("unexpected accounting: %+v", cnt)
			}
		}},
		{"missing edge is a counted no-op", func(t *testing.T) {
			mt, _ := newMaintainer(2, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 4})
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Deletions != 1 || cnt.DelMisses != 1 {
				t.Fatalf("miss not counted: %+v", cnt)
			}
		}},
		{"delete then re-add", func(t *testing.T) {
			// The truncated terminals must revive when the edge returns: after
			// re-adding 0 -> 1, no walk from 0 may still dangle there (the
			// revival law fires on first arrival at a dangling terminal).
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 30, Workers: 1, Seed: 5})
			soc.AddEdge(0, 1)
			soc.AddEdge(1, 0)
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			mid := mt.Counters()
			if mid.DelTruncated == 0 {
				t.Fatalf("deletion of the only out-edge truncated nothing: %+v", mid)
			}
			mt.ApplyEdge(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Revived == 0 {
				t.Fatalf("re-add revived nothing: %+v", cnt)
			}
			if est := mt.Estimate(1); math.IsNaN(est) || est <= 0 {
				t.Fatalf("estimate(1)=%v after re-add", est)
			}
		}},
		{"multigraph copy survives", func(t *testing.T) {
			// Two copies of 0 -> 1: removing one leaves every stored step
			// legal (u still has an edge to v), so ValidateSteps must pass
			// whether or not individual steps were re-sampled.
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 20, Workers: 1, Seed: 6})
			soc.AddEdge(0, 1)
			soc.AddEdge(0, 1)
			soc.AddEdge(1, 2)
			mt.Bootstrap()
			if c := soc.CountEdges(0, 1); c != 2 {
				t.Fatalf("CountEdges=%d, want 2", c)
			}
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			if c := soc.CountEdges(0, 1); c != 1 {
				t.Fatalf("CountEdges=%d after removal, want 1", c)
			}
			cnt := mt.Counters()
			if cnt.DelTruncated != 0 {
				t.Fatalf("truncated despite a surviving copy: %+v", cnt)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestChurnFuzz is the shrink-grow fuzz harness: random interleaved
// add/delete batches with per-batch full-store recounts and the
// missing-edge-step invariant, serialized and with the parallel worker pool,
// under whatever -race the CI run adds.
func TestChurnFuzz(t *testing.T) {
	rounds, batch := 12, 150
	if testing.Short() {
		rounds, batch = 6, 80
	}
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "serialized", 4: "parallel"}[workers], func(t *testing.T) {
			const n = 80
			mt, _ := newMaintainer(n, Config{
				Eps: 0.2, R: 20, Workers: 4, Seed: 51, UpdateWorkers: workers,
			})
			mt.Bootstrap()
			rng := rand.New(rand.NewPCG(52, uint64(workers)))
			for round := 0; round < rounds; round++ {
				events := gen.PowerLawChurnStream(n, batch, 0.9, 0.4, rng)
				mt.ApplyEvents(events)
				validateAll(t, mt)
			}
			cnt := mt.Counters()
			if cnt.Deletions == 0 || cnt.Arrivals == 0 {
				t.Fatalf("fuzz stream was one-sided: %+v", cnt)
			}
			if cnt.SlowNoops != 0 {
				t.Fatalf("SlowNoops=%d, want 0", cnt.SlowNoops)
			}
			if workers == 1 && cnt.DelMisses != 0 {
				t.Fatalf("DelMisses=%d on a serialized only-live stream", cnt.DelMisses)
			}
			for v, x := range mt.ApproxAll() {
				if math.IsNaN(x) || x < 0 {
					t.Fatalf("estimate[%d]=%v", v, x)
				}
			}
		})
	}
}

// TestWindowEventsThroughMaintainer runs a sliding window as an event stream
// (graph.WindowEvents through ApplyEvents) on top of a ring: no expiry may
// miss, the graph must end with the ring plus exactly the window, the store
// must validate, and the run must be bitwise the same with LegacyScan and
// with CompactEvery on or off.
func TestWindowEventsThroughMaintainer(t *testing.T) {
	const n, m, capacity = 80, 600, 150
	run := func(cfg Config) (map[graph.NodeID]float64, Counters, *Maintainer) {
		cfg.Eps, cfg.R, cfg.Workers, cfg.Seed = 0.2, 3, 1, 21
		mt, soc := newMaintainer(n, cfg)
		g := soc.Graph()
		for i := 0; i < n; i++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		}
		mt.Bootstrap()
		base := g.NumEdges()
		stream := gen.DirichletStream(n, m, rand.New(rand.NewPCG(22, 0)))
		mt.ApplyEvents(graph.WindowEvents(stream, capacity))
		c := mt.Counters()
		if c.DelMisses != 0 {
			t.Fatalf("%+v: window expiry missed %d edges it had inserted itself", cfg, c.DelMisses)
		}
		if c.Arrivals != m || c.Deletions != m-capacity {
			t.Fatalf("%+v: %d arrivals and %d deletions, want %d and %d", cfg, c.Arrivals, c.Deletions, m, m-capacity)
		}
		if got := g.NumEdges(); got != base+capacity {
			t.Fatalf("%+v: graph holds %d edges, want %d base + %d windowed", cfg, got, base, capacity)
		}
		validateAll(t, mt)
		return mt.ApproxAll(), c, mt
	}

	est, cnt, mt := run(Config{})
	estL, cntL, _ := run(Config{LegacyScan: true})
	requireRunsEqual(t, "window: indexed vs legacy scan", est, estL, cnt, cntL)
	estC, cntC, mtC := run(Config{CompactEvery: 5})
	requireRunsEqual(t, "window: CompactEvery=5 vs off", est, estC, cnt, cntC)
	// The compacting run reclaimed the churn a 4x-overcapacity stream leaves.
	_, total := mt.Store().ArenaStats()
	_, totalC := mtC.Store().ArenaStats()
	if totalC >= total {
		t.Fatalf("compacting run's arena (%d) not smaller than baseline (%d)", totalC, total)
	}
}
