package main

import (
	"fmt"
	"runtime"
	"time"

	"fastppr/internal/graph"
	"fastppr/internal/pagerank"
	"fastppr/internal/persist"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

// The only program settings the benchmark chooses. Config.Seed is fixed, so
// the workload seed changes the inputs and nothing else.
const (
	programSeed = 1
	walkEps     = 0.2
	walkR       = 8
	queryWalks  = 2000
)

func pagerankConfig() pagerank.Config {
	return pagerank.Config{Eps: walkEps, R: walkR, Seed: programSeed}
}

func salsaConfig() salsa.Config {
	return salsa.Config{Eps: walkEps, R: walkR, Seed: programSeed, QueryWalks: queryWalks}
}

// persistConfig is the journal of pagerank-stream: group commit, the WAL
// fsynced every 100 ms. Syncing every 64 records instead costs about a
// thousand fsyncs per second of stream, and on a shared virtual disk the
// workload then times the disk more than the program (BASELINE.md).
func persistConfig(dir string) persist.Config {
	return persist.Config{Dir: dir, Policy: persist.SyncInterval, SyncInterval: 100 * time.Millisecond}
}

// workload is one traffic model the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(env *runEnv) (*result, error)
}

// runEnv is what one pass of a workload gets from the command line.
type runEnv struct {
	seed    uint64
	seconds float64
	setups  int     // set-ups to time; the last one is measured further
	tr      *tracer // nil when untraced
	dir     string  // scratch directory for durable state
}

// events is the stream length of a run: rate events per second of --seconds.
func (e *runEnv) events(rate float64) int64 { return int64(rate * e.seconds) }

// result is everything one pass measured.
type result struct {
	setupS     []float64
	events     int64
	wallS      float64   // stream phase
	fresh      []float64 // per applying call, ms from the events' hand-off
	query      []float64 // per query, ms from due time
	queryCalls int64     // sum of served QueryStats.StoreCalls (hits count 0)
	storeCalls int64     // socialstore calls made for events
	recoveryS  float64
	heapMB     float64 // HeapInuse after GC, once set up
	heapEndMB  float64 // the same at the end of the stream phase
	fails      tally
	layer      map[string]float64
	checks     []check
}

func newResult() *result { return &result{layer: make(map[string]float64)} }

// check is one correctness gate; err is nil when it passed.
type check struct {
	name string
	err  error
	took time.Duration // for gates run through timed
}

func (r *result) gate(name string, err error) {
	r.checks = append(r.checks, check{name: name, err: err})
}

// timed runs one expensive gate and records how long it took.
func (r *result) timed(name string, f func() error) {
	t := time.Now()
	err := f()
	r.checks = append(r.checks, check{name: name, err: err, took: time.Since(t)})
}

func (r *result) gatef(name string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.gate(name, err)
}

// heapInuseMB is HeapInuse after a forced collection, in MB.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// heapAfterStream records the heap at the end of the stream phase and its
// growth over the set-up footprint.
func (r *result) heapAfterStream() {
	r.heapEndMB = heapInuseMB()
	r.layer["stream.heap_growth_mb"] = r.heapEndMB - r.heapMB
}

// bootstrapped records the set-up layer numbers of the measured set-up.
func (r *result) bootstrapped(in *paperInput, steps int64, bootS float64) {
	fmt.Printf("#   set-up %d: gen %.3f s, graph %.3f s, bootstrap %.3f s\n", len(r.setupS), in.genS, in.buildS, bootS)
	r.layer["gen.s"] = in.genS
	r.layer["graph.build_s"] = in.buildS
	r.layer["bootstrap.s"] = bootS
	r.layer["bootstrap.steps_per_s"] = ratio(float64(steps), bootS)
}

// storeDelta records the socialstore layer over the stream phase and returns
// its total call count.
func (r *result) storeDelta(before, after socialstore.Metrics, events int64) int64 {
	reads, writes, fetches := after.Reads-before.Reads, after.Writes-before.Writes, after.Fetches-before.Fetches
	r.layer["socialstore.reads_per_event"] = ratio(float64(reads), float64(events))
	r.layer["socialstore.writes_per_event"] = ratio(float64(writes), float64(events))
	r.layer["socialstore.fetches_per_event"] = ratio(float64(fetches), float64(events))
	var top, sum int64
	for i, x := range after.PerShardReads {
		d := x - before.PerShardReads[i]
		top = max(top, d)
		sum += d
	}
	r.layer["socialstore.shard_skew"] = ratio(float64(top), float64(sum)/float64(len(after.PerShardReads)))
	return reads + writes + fetches
}

// walkstoreLayer records the walk store's layer numbers at the end of the
// stream phase.
func (r *result) walkstoreLayer(w *walkstore.Store, epoch0 int64, garbagePeak, compactS float64, compactions int) {
	live, total := w.ArenaStats()
	r.layer["walkstore.mutations_per_event"] = ratio(float64(w.Epoch()-epoch0), float64(r.events))
	r.layer["walkstore.segments"] = float64(w.NumSegments())
	r.layer["walkstore.arena_live"] = float64(live)
	r.layer["walkstore.arena_garbage_peak"] = max(garbagePeak, garbageShare(live, total))
	r.layer["walkstore.compact_s"] = compactS
	r.layer["walkstore.compactions"] = float64(compactions)
}

func garbageShare(live, total int64) float64 { return ratio(float64(total-live), float64(total)) }

// compactor runs Store().MaybeCompact on the workload's cadence and keeps the
// walkstore layer's compaction numbers.
type compactor struct {
	w           *walkstore.Store
	garbagePeak float64
	seconds     float64
	compactions int
}

func (c *compactor) maybeCompact(tr *tracer, parent int32, req int64) {
	c.garbagePeak = max(c.garbagePeak, garbageShare(c.w.ArenaStats()))
	sp := tr.start("MaybeCompact", parent, req)
	t := time.Now()
	if c.w.MaybeCompact() {
		c.compactions++
	}
	c.seconds += time.Since(t).Seconds()
	tr.finish(sp)
}

// storeGates are the correctness gates a final walk store must pass: every
// stored step exists in the graph, and with full set the store's counters
// and pending-position index are rebuilt from its paths and compared.
func (r *result) storeGates(w *walkstore.Store, g *graph.Graph, full bool) {
	if full {
		r.timed("walkstore.Validate", w.Validate)
	}
	r.timed("walkstore.ValidateSteps", func() error { return w.ValidateSteps(g.HasEdge) })
}

// counterGates reconciles a maintainer's counters with the events fed.
func (r *result) counterGates(slowNoops, arrivals, deletions int64, feed *eventFeed) {
	r.gatef("SlowNoops == 0", slowNoops == 0, "SlowNoops = %d", slowNoops)
	r.gatef("Arrivals == arrivals fed", arrivals == feed.Arrivals, "Arrivals = %d, fed %d", arrivals, feed.Arrivals)
	r.gatef("Deletions == deletions fed", deletions == feed.Deletions, "Deletions = %d, fed %d", deletions, feed.Deletions)
}

// maintainerLayer records a maintainer's update-path counters per event.
func (r *result) maintainerLayer(prefix string, busyS float64, skipRate float64, slow, rerouted, revived, delRerouted, delTruncated int64) {
	per := func(x int64) float64 { return ratio(float64(x), float64(r.events)) }
	r.layer[prefix+".busy_us_per_event"] = ratio(busyS*1e6, float64(r.events))
	r.layer[prefix+".skip_rate"] = skipRate
	r.layer[prefix+".slow_paths_per_event"] = per(slow)
	r.layer[prefix+".rerouted_per_event"] = per(rerouted)
	r.layer[prefix+".revived_per_event"] = per(revived)
	r.layer[prefix+".del_rerouted_per_event"] = per(delRerouted)
	r.layer[prefix+".del_truncated_per_event"] = per(delTruncated)
	r.layer[prefix+".useful_ratio"] = ratio(float64(rerouted+revived), float64(slow))
}
