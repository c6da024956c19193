package engine

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

// Config parameterizes an Engine.
type Config struct {
	// Eps is the walk reset probability; segment lengths are geometric with
	// mean 1/Eps. Must be in (0, 1].
	Eps float64
	// R is the number of stored segments per node (the paper's R).
	R int
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Batch is the number of lockstep walkers per worker burst; 0 means 128.
	Batch int
	// Seed seeds the PCG sources. BuildStore derives one source per node
	// chunk (PCG(Seed, chunkIndex)) and stores the chunks in chunk order,
	// so the generated walks and their segment IDs are identical for any
	// worker count.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 128
	}
	if c.R <= 0 {
		c.R = 1
	}
	return c
}

// Engine generates the initial walk segments over a graph/store pair.
type Engine struct {
	g     *graph.Graph
	store *walkstore.Store
	cfg   Config
}

// New returns an engine over g and store.
func New(g *graph.Graph, store *walkstore.Store, cfg Config) *Engine {
	if cfg.Eps <= 0 || cfg.Eps > 1 {
		panic("engine: Eps must be in (0, 1]")
	}
	return &Engine{g: g, store: store, cfg: cfg.withDefaults()}
}

// BuildStore generates cfg.R segments for every node in nodes and stores
// them, using the worker pool. It returns the total number of walk steps
// taken (stored path nodes). Nodes are claimed in fixed-size chunks via an
// atomic cursor, so the work balances even when segment lengths vary; each
// chunk walks with its own PCG(Seed, chunkIndex) source into a flat
// per-chunk buffer, and once every chunk is walked one walkstore.Load
// stores them in chunk order. The paths and their segment IDs therefore do
// not depend on which worker claims which chunk, or on the worker count.
// The store must be empty.
func (e *Engine) BuildStore(nodes []graph.NodeID) int64 {
	cfg := e.cfg
	const chunk = 256
	batches := make([]walkstore.Batch, (len(nodes)+chunk-1)/chunk)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newBurstGen(e.g, cfg.Batch, cfg.Eps)
			for {
				c := int(cursor.Add(1)) - 1
				if c >= len(batches) {
					break
				}
				lo := c * chunk
				rng := rand.New(rand.NewPCG(cfg.Seed, uint64(c)))
				gen.run(&batches[c], nodes[lo:min(lo+chunk, len(nodes))], cfg.R, rng)
			}
		}()
	}
	wg.Wait()
	var steps int64
	for _, b := range batches {
		steps += int64(len(b.Nodes))
	}
	e.store.Load(batches, cfg.Workers)
	return steps
}

// burstGen holds one worker's reusable lockstep-walk state.
type burstGen struct {
	g       *graph.Graph
	batcher *graph.Batcher
	eps     float64
	batch   int
	// Parallel arrays over alive walkers, compacted by swap-remove.
	cur  []graph.NodeID
	next []graph.NodeID
	ok   []bool
	slot []int // alive walker -> path buffer index
	// One reusable path buffer per walker slot, flushed into the chunk's
	// batch when its burst ends.
	paths [][]graph.NodeID
}

func newBurstGen(g *graph.Graph, batch int, eps float64) *burstGen {
	return &burstGen{
		g:       g,
		batcher: g.NewBatcher(),
		eps:     eps,
		batch:   batch,
		cur:     make([]graph.NodeID, 0, batch),
		next:    make([]graph.NodeID, batch),
		ok:      make([]bool, batch),
		slot:    make([]int, 0, batch),
		paths:   make([][]graph.NodeID, batch),
	}
}

// run generates r segments for every source in sources and appends them to
// out, one burst at a time in walker-slot order.
func (b *burstGen) run(out *walkstore.Batch, sources []graph.NodeID, r int, rng *rand.Rand) {
	total := len(sources) * r
	emitted := 0
	for emitted < total {
		n := min(b.batch, total-emitted)
		// Seed the burst: walker i starts at sources[(emitted+i)/r].
		b.cur = b.cur[:n]
		b.slot = b.slot[:n]
		for i := 0; i < n; i++ {
			src := sources[(emitted+i)/r]
			b.cur[i] = src
			b.slot[i] = i
			b.paths[i] = append(b.paths[i][:0], src)
		}
		emitted += n
		// Lockstep rounds until every walker in the burst has reset.
		for alive := n; alive > 0; {
			// Reset phase: geometric termination before each step.
			for i := 0; i < alive; {
				if rng.Float64() < b.eps {
					alive = b.retire(i, alive)
					continue
				}
				i++
			}
			if alive == 0 {
				break
			}
			// Step phase: one shard-grouped sampling call for the survivors.
			b.batcher.RandomOutNeighbors(b.cur[:alive], b.next[:alive], b.ok[:alive], rng)
			for i := 0; i < alive; {
				if !b.ok[i] { // dangling node ends the segment
					alive = b.retire(i, alive)
					continue
				}
				b.cur[i] = b.next[i]
				b.paths[b.slot[i]] = append(b.paths[b.slot[i]], b.next[i])
				i++
			}
		}
		for _, p := range b.paths[:n] {
			start := len(out.Nodes)
			out.Nodes = append(out.Nodes, p...)
			out.EndSegment(start, walkstore.Unsided)
		}
	}
}

// retire swap-removes walker i from the alive prefix and returns the new
// alive count. Its finished path stays in its slot for the burst flush.
func (b *burstGen) retire(i, alive int) int {
	alive--
	b.cur[i] = b.cur[alive]
	b.slot[i] = b.slot[alive]
	b.next[i] = b.next[alive]
	b.ok[i] = b.ok[alive]
	return alive
}
