// Command benchwalk is the reproducible walk-engine benchmark: it builds a
// preferential-attachment graph, times full walk-store construction (n·R
// segments, pagerank.Maintainer.Bootstrap) and an edge-arrival update storm
// through the same PageRank maintainer at several worker counts, and
// writes the results to a JSON file (BENCH_walkgen.json at the repo root by
// convention) so the performance trajectory is tracked across PRs. The
// report records num_cpu and gomaxprocs, so a committed result is
// self-describing about how much parallel speedup the host could even show.
//
// The maintainer storms replay the same arrivals through the incremental
// pagerank.Maintainer and salsa.Maintainer at each -updateworkers count
// (1 = the serialized exact path, >1 = the striped parallel path) and
// report, next to throughput, the fast-path skip rate and the social-store
// call counts the paper's cost analysis is stated in. The concurrent-query
// profile runs personalized SALSA queries *while* a parallel storm is
// consuming arrivals — the read-mostly path that used to serialize against
// updates.
//
// The churn profile (-churn, on by default) folds the storm into a
// shrink-grow event stream — arrivals interleaved with deletions of live
// edges — and replays it through both maintainers (delete throughput of the
// reverse reroute rule), then streams the storm through a serialized
// PageRank maintainer as a sliding window (graph.WindowEvents) at a
// capacity below the stream length so expiring edges exercise the deletion
// path continuously.
//
// The arrival stream's shape is selectable with -workload: uniform (the
// default random-pair mix), poisson-burst (temporally clumped arrivals
// sharing a source), bipartite (follower-graph hub->authority arrivals with
// a Zipf popularity law), or power-law (Zipf-skewed endpoints on both
// sides). The adversarial section (-adversarial, on by default) additionally
// replays all three adversarial shapes through the serialized SALSA
// maintainer so one report carries columns for every workload. -compactevery N
// triggers walk-arena compaction every N updates inside the maintainers and
// the window driver; the arena live/total/garbage columns record what it
// reclaimed, and -verify bounds the post-storm garbage ratio whenever the
// report was taken with compaction on.
//
// The durability sweep (-wal) replays a serialized pagerank storm with every
// walk-store mutation journaled through internal/persist at each fsync
// policy, commits a marker per edge, and times a cold recovery. The crash
// harness (-crash) re-execs this binary as a child, kill -9s it mid-storm at
// a seeded edge, recovers in a fresh child, and asserts the resumed estimates
// are bitwise-identical to an uninterrupted run.
//
// Usage:
//
//	go run ./cmd/benchwalk                    # full run: n=100k, d=10
//	go run ./cmd/benchwalk -smoke             # small CI-sized run
//	go run ./cmd/benchwalk -workers 1,4,8     # explicit build worker counts
//	go run ./cmd/benchwalk -updateworkers 1,4 # maintainer storm worker counts
//	go run ./cmd/benchwalk -maintstorm=false  # build/storm runs only
//	go run ./cmd/benchwalk -wal batch:64      # one durability policy, not the sweep
//	go run ./cmd/benchwalk -crash -smoke      # kill -9 crash-recovery harness only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/lint"
	"fastppr/internal/pagerank"
	"fastppr/internal/persist"
	"fastppr/internal/salsa"
	"fastppr/internal/serve"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

type runResult struct {
	Workers       int     `json:"workers"`
	BuildSeconds  float64 `json:"build_seconds"`
	Segments      int     `json:"segments"`
	BuildSteps    int64   `json:"build_steps"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	UpdateSeconds float64 `json:"update_seconds"`
	UpdateEdges   int     `json:"update_edges"`
	Rerouted      int64   `json:"rerouted_segments"`
	EdgesPerSec   float64 `json:"update_edges_per_sec"`
}

// maintainerResult reports one incremental-maintainer storm replay: the same
// arrivals consumed through pagerank.Maintainer at one update-worker count,
// with the fast-path skip rate and the call accounting against the social
// store.
type maintainerResult struct {
	UpdateWorkers int     `json:"update_workers"`
	Seconds       float64 `json:"seconds"`
	Edges         int     `json:"edges"`
	EdgesPerSec   float64 `json:"edges_per_sec"`
	FastSkips     int64   `json:"fast_skips"`
	EmptySkips    int64   `json:"empty_skips"`
	SlowPaths     int64   `json:"slow_paths"`
	SlowNoops     int64   `json:"slow_noops"`
	SkipRate      float64 `json:"skip_rate"`
	Rerouted      int64   `json:"rerouted_segments"`
	Revived       int64   `json:"revived_segments"`
	StoreReads    int64   `json:"store_reads"`
	StoreWrites   int64   `json:"store_writes"`
	ArenaLive     int64   `json:"arena_live_slots"`
	ArenaTotal    int64   `json:"arena_total_slots"`
	ArenaGarbage  float64 `json:"arena_garbage_ratio"`
}

// salsaResult reports one SALSA maintainer storm replay and (on the last
// worker count) the personalized-query latency/cost profile: mean store
// calls per query next to the Theorem 8 accounting ceiling those calls are
// measured against.
type salsaResult struct {
	UpdateWorkers int `json:"update_workers"`
	// LegacyScan marks the comparison replay that enumerates repair
	// candidates by walking every visitor's full path (the pre-index scan)
	// instead of the pending-position index.
	LegacyScan       bool    `json:"legacy_scan,omitempty"`
	BootstrapSeconds float64 `json:"bootstrap_seconds"`
	StormSeconds     float64 `json:"storm_seconds"`
	Edges            int     `json:"edges"`
	EdgesPerSec      float64 `json:"edges_per_sec"`
	SkipRate         float64 `json:"skip_rate"`
	SlowNoops        int64   `json:"slow_noops"`
	Rerouted         int64   `json:"rerouted_segments"`
	Revived          int64   `json:"revived_segments"`
	Queries          int     `json:"queries,omitempty"`
	QueryWalks       int     `json:"query_walks,omitempty"`
	MeanQueryMillis  float64 `json:"mean_query_millis,omitempty"`
	P50QueryMillis   float64 `json:"p50_query_millis,omitempty"`
	P99QueryMillis   float64 `json:"p99_query_millis,omitempty"`
	MeanStoreCalls   float64 `json:"mean_store_calls_per_query,omitempty"`
	MaxStoreCalls    int64   `json:"max_store_calls_per_query,omitempty"`
	Theorem8Bound    float64 `json:"theorem8_bound_per_query,omitempty"`
	MeanStitched     float64 `json:"mean_stitched_segments_per_query,omitempty"`
	ArenaLive        int64   `json:"arena_live_slots"`
	ArenaTotal       int64   `json:"arena_total_slots"`
	ArenaGarbage     float64 `json:"arena_garbage_ratio"`
}

// adversarialResult reports one adversarial-workload replay: the named
// arrival stream consumed through the serialized SALSA maintainer, with the
// arena columns showing what the stream's churn left behind (or what
// -compactevery reclaimed).
type adversarialResult struct {
	Workload     string  `json:"workload"`
	Seconds      float64 `json:"seconds"`
	Edges        int     `json:"edges"`
	EdgesPerSec  float64 `json:"edges_per_sec"`
	SkipRate     float64 `json:"skip_rate"`
	SlowNoops    int64   `json:"slow_noops"`
	Rerouted     int64   `json:"rerouted_segments"`
	Revived      int64   `json:"revived_segments"`
	ArenaLive    int64   `json:"arena_live_slots"`
	ArenaTotal   int64   `json:"arena_total_slots"`
	ArenaGarbage float64 `json:"arena_garbage_ratio"`
}

// concurrentQueryResult profiles personalized queries racing a parallel
// SALSA storm: the storm's throughput while queries were in flight, the
// query latency under write load (mean plus nearest-rank p50/p99 tail), and
// the mean walk-store epoch drift each query observed (how many segment
// mutations landed mid-query). Queries is the measured total across all
// querier goroutines: the -queries flag caps that shared total (the same
// semantics as the serial profile), and the storm draining first ends the
// profile early.
type concurrentQueryResult struct {
	StormWorkers     int     `json:"storm_workers"`
	Queriers         int     `json:"queriers"`
	Queries          int     `json:"queries"`
	QueryWalks       int     `json:"query_walks"`
	StormSeconds     float64 `json:"storm_seconds"`
	StormEdgesPerSec float64 `json:"storm_edges_per_sec"`
	MeanQueryMillis  float64 `json:"mean_query_millis"`
	P50QueryMillis   float64 `json:"p50_query_millis"`
	P99QueryMillis   float64 `json:"p99_query_millis"`
	MeanStoreCalls   float64 `json:"mean_store_calls_per_query"`
	MaxStoreCalls    int64   `json:"max_store_calls_per_query"`
	Theorem8Bound    float64 `json:"theorem8_bound_per_query"`
	MeanEpochDrift   float64 `json:"mean_epoch_drift_per_query"`
}

// serveResult profiles the internal/serve tier. The racing phase hammers a
// hot-spot source mix from concurrent queriers while a parallel storm
// consumes arrivals (sustained serving under write load: p50/p99 latency,
// cache-hit rate, worst-case store calls). The quiescent phase then times
// cold computes against cache-hit repeats on the settled store and
// cross-checks every hit bitwise against a fresh recompute on the hit's
// recorded RNG stream.
type serveResult struct {
	StormWorkers     int     `json:"storm_workers"`
	Queriers         int     `json:"queriers"`
	QueryWalks       int     `json:"query_walks"`
	HotSources       int     `json:"hot_sources"`
	Queries          int     `json:"queries"`
	Hits             int64   `json:"hits"`
	Misses           int64   `json:"misses"`
	Coalesced        int64   `json:"coalesced"`
	Raced            int64   `json:"raced"`
	Invalidated      int64   `json:"invalidated"`
	HitRate          float64 `json:"hit_rate"`
	MeanQueryMillis  float64 `json:"mean_query_millis"`
	P50QueryMillis   float64 `json:"p50_query_millis"`
	P99QueryMillis   float64 `json:"p99_query_millis"`
	MaxStoreCalls    int64   `json:"max_store_calls_per_query"`
	Theorem8Bound    float64 `json:"theorem8_bound_per_query"`
	StormSeconds     float64 `json:"storm_seconds"`
	StormEdgesPerSec float64 `json:"storm_edges_per_sec"`
	SlowNoops        int64   `json:"slow_noops"`
	ValidateClean    bool    `json:"validate_clean"`
	// Quiescent-phase columns: mean cold (miss) latency vs mean cached-hit
	// latency over the same sources, their ratio, and whether every hit was
	// bitwise identical to a fresh recompute at the same epoch.
	ColdMillis        float64 `json:"quiescent_cold_millis"`
	HitMillis         float64 `json:"quiescent_hit_millis"`
	HitSpeedup        float64 `json:"hit_speedup"`
	HitRecomputeMatch bool    `json:"hit_recompute_match"`
}

// churnResult reports one maintainer churn-storm replay: the update storm
// folded into a shrink-grow event stream (arrivals and deletions
// interleaved) and consumed through one incremental maintainer, with the
// deletion throughput the reverse reroute rule sustains next to the event
// throughput.
type churnResult struct {
	Engine        string  `json:"engine"` // "pagerank" or "salsa"
	UpdateWorkers int     `json:"update_workers"`
	Seconds       float64 `json:"seconds"`
	Events        int     `json:"events"`
	Arrivals      int     `json:"arrivals"`
	Deletions     int     `json:"deletions"`
	EventsPerSec  float64 `json:"events_per_sec"`
	DeletesPerSec float64 `json:"deletes_per_sec"`
	DelMisses     int64   `json:"del_misses"`
	DelRerouted   int64   `json:"del_rerouted_segments"`
	DelTruncated  int64   `json:"del_truncated_segments"`
	SlowNoops     int64   `json:"slow_noops"`
}

// windowResult reports the sliding-window profile: the storm turned into a
// window event stream (graph.WindowEvents) at a capacity below the stream
// length and applied through a serialized pagerank.Maintainer's
// ApplyEvents, so every arrival past the fill phase is followed by the
// deletion of the oldest windowed edge. DeleteMissed is the maintainer's
// DelMisses.
type windowResult struct {
	Capacity     int     `json:"capacity"`
	Streamed     int     `json:"streamed"`
	Expired      int     `json:"expired"`
	Turnover     float64 `json:"turnover"`
	Seconds      float64 `json:"seconds"`
	EdgesPerSec  float64 `json:"edges_per_sec"`
	Rerouted     int64   `json:"expiry_rerouted_segments"`
	Truncated    int64   `json:"expiry_truncated_segments"`
	DeleteMissed int     `json:"delete_missed"`
	ArenaLive    int64   `json:"arena_live_slots"`
	ArenaTotal   int64   `json:"arena_total_slots"`
	ArenaGarbage float64 `json:"arena_garbage_ratio"`
}

// churnReport groups the -churn profile: maintainer churn storms per
// engine and update-worker count, plus the sliding-window turnover run.
type churnReport struct {
	Storms []churnResult `json:"storms"`
	Window *windowResult `json:"window,omitempty"`
}

type report struct {
	Timestamp    string  `json:"timestamp"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	GOGC         int     `json:"gogc,omitempty"`
	Nodes        int     `json:"nodes"`
	EdgesPerNode int     `json:"edges_per_node"`
	GraphEdges   int     `json:"graph_edges"`
	R            int     `json:"segments_per_node"`
	Eps          float64 `json:"eps"`
	Seed         uint64  `json:"seed"`
	// Workload names the arrival-stream shape of the main storm (-workload);
	// CompactEvery is the maintainers' arena-compaction period (0 = off).
	Workload     string `json:"workload,omitempty"`
	CompactEvery int    `json:"compact_every,omitempty"`
	// LintClean records the walklint verdict on the measured tree
	// (-lintclean; absent when the caller did not record one), and
	// LintVersion the compiled-in analyzer-suite revision that judged it —
	// so a committed report also attests the tree it measured was
	// invariant-clean. -verify rejects a report claiming lint_clean=false.
	LintClean   *bool       `json:"lint_clean,omitempty"`
	LintVersion string      `json:"lint_version,omitempty"`
	Runs        []runResult `json:"runs"`
	// SpeedupBuild is max-worker build throughput over the 1-worker run —
	// only meaningful when num_cpu > 1; the recorded core count makes a
	// committed single-core ~1x self-explanatory.
	SpeedupBuild float64 `json:"speedup_build"`
	// MaintainerStorms holds one entry per -updateworkers count (absent
	// with -maintstorm=false).
	MaintainerStorms []maintainerResult `json:"maintainer_storms,omitempty"`
	// SpeedupMaintainerStorm is max-worker storm throughput over the
	// 1-worker (serialized) run.
	SpeedupMaintainerStorm float64 `json:"speedup_maintainer_storm,omitempty"`
	// SalsaStorms holds one entry per -updateworkers count plus one
	// legacy-scan comparison replay at the serialized worker count (absent
	// with -salsa=false).
	SalsaStorms       []salsaResult `json:"salsa_storms,omitempty"`
	SpeedupSalsaStorm float64       `json:"speedup_salsa_storm,omitempty"`
	// SpeedupIndexVsScan is serialized indexed-storm throughput over the
	// legacy full-path-scan replay of the same arrivals — the pending-position
	// index's headline win.
	SpeedupIndexVsScan float64 `json:"speedup_index_vs_scan,omitempty"`
	// ConcurrentQueries is the queries-racing-arrivals profile (absent with
	// -salsa=false or -queries 0).
	ConcurrentQueries *concurrentQueryResult `json:"concurrent_queries,omitempty"`
	// ServeQueries is the serving-tier profile: cached queries racing a
	// storm, then cold-vs-hit timing on the settled store (absent with
	// -salsa=false or -queries 0).
	ServeQueries *serveResult `json:"serve_queries,omitempty"`
	// AdversarialStorms replays the three adversarial arrival workloads
	// through the serialized SALSA maintainer (absent with -adversarial=false
	// or -salsa=false).
	AdversarialStorms []adversarialResult `json:"adversarial_storms,omitempty"`
	// Churn is the -churn profile: shrink-grow deletion storms through both
	// maintainers plus the sliding-window driver (absent with -churn=false).
	Churn *churnReport `json:"churn,omitempty"`
	// Durability is the fsync-policy sweep: the serialized pagerank storm
	// with WAL journaling and one commit marker per edge, plus cold-recovery
	// timing (absent with -wal off).
	Durability []durabilityResult `json:"durability,omitempty"`
	// Crash is the kill -9 crash-recovery harness report (only with -crash;
	// a crash report carries no engine runs).
	Crash *crashReport `json:"crash,omitempty"`
}

func main() {
	var (
		n        = flag.Int("n", 100_000, "graph nodes")
		d        = flag.Int("d", 10, "out-edges per node (preferential attachment)")
		r        = flag.Int("r", 8, "walk segments per node (the paper's R)")
		eps      = flag.Float64("eps", 0.2, "walk reset probability")
		updates  = flag.Int("updates", 20_000, "edge arrivals in the update storm")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		out      = flag.String("out", "BENCH_walkgen.json", "output JSON path ('' to skip)")
		workers  = flag.String("workers", "", "comma-separated build worker counts (default 1,P/2,P)")
		uworkers = flag.String("updateworkers", "", "comma-separated maintainer storm worker counts (default 1,max(4,P))")
		smoke    = flag.Bool("smoke", false, "tiny CI run (overrides -n/-d/-r/-updates)")
		mstorm   = flag.Bool("maintstorm", true, "replay the storm through the incremental maintainer (skip rate + store calls)")
		dosalsa  = flag.Bool("salsa", true, "replay the storm through the SALSA maintainer and profile personalized queries")
		dochurn  = flag.Bool("churn", true, "replay a shrink-grow churn stream (arrivals + deletions) through both maintainers and the sliding-window driver")
		workload = flag.String("workload", "uniform", "arrival stream shape: uniform, poisson-burst, bipartite, power-law")
		doadv    = flag.Bool("adversarial", true, "replay the three adversarial arrival workloads through the serialized SALSA maintainer")
		compactN = flag.Int("compactevery", 0, "trigger walk-arena compaction every N updates in the maintainers and window driver (0 disables)")
		queries  = flag.Int("queries", 20, "personalized SALSA queries to profile (0 skips the query profiles)")
		qwalks   = flag.Int("querywalks", 2_000, "Monte Carlo walks per personalized query")
		verify   = flag.String("verify", "", "validate an existing report JSON (parses, non-zero throughputs) and exit")
		lintok   = flag.String("lintclean", "", "record the walklint verdict (true or false) as lint_clean/lint_version provenance; empty omits the fields")
		gogc     = flag.Int("gogc", 300, "GOGC during the benchmark (walk stores churn arena garbage; recorded in the report)")
		walpol   = flag.String("wal", "sweep", "durability sweep policy: sweep, off, record, batch:N, or interval:DUR")
		snapdir  = flag.String("snapshot", "", "directory for WAL/snapshot artifacts (default: a temp dir, removed afterwards)")
		crash    = flag.Bool("crash", false, "run only the kill -9 crash-recovery harness and write its report")

		// Internal flags for the crash harness's re-exec protocol; not for
		// direct use.
		crashchild = flag.String("crashchild", "", "internal: run as a crash-harness child for this engine (pagerank or salsa)")
		crashphase = flag.String("crashphase", "storm", "internal: crash-child phase (storm or resume)")
		crashdir   = flag.String("crashdir", "", "internal: crash-child persistence directory")
	)
	flag.Parse()
	if *verify != "" {
		if err := verifyReport(*verify); err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk:", err)
			os.Exit(1)
		}
		fmt.Printf("benchwalk: %s OK\n", *verify)
		return
	}
	if *smoke {
		*n, *d, *r, *updates = 2_000, 5, 4, 500
		*queries, *qwalks = 5, 200
	}
	// Reject nonsense up front: an out-of-range parameter would not fail
	// loudly here, it would hang the storm generator (-n < 2, -updates < 0)
	// or write a silently corrupt BENCH_walkgen.json.
	if *eps <= 0 || *eps >= 1 {
		fmt.Fprintf(os.Stderr, "benchwalk: -eps must be in (0, 1), got %g\n", *eps)
		os.Exit(2)
	}
	if *n < 2 || *d < 1 || *r < 1 {
		fmt.Fprintln(os.Stderr, "benchwalk: need -n >= 2, -d >= 1, -r >= 1")
		os.Exit(2)
	}
	if *updates < 1 {
		fmt.Fprintf(os.Stderr, "benchwalk: -updates must be >= 1, got %d\n", *updates)
		os.Exit(2)
	}
	if *queries < 0 {
		fmt.Fprintf(os.Stderr, "benchwalk: -queries must be >= 0, got %d\n", *queries)
		os.Exit(2)
	}
	if *qwalks < 1 {
		fmt.Fprintf(os.Stderr, "benchwalk: -querywalks must be >= 1, got %d\n", *qwalks)
		os.Exit(2)
	}
	if *gogc < 0 {
		fmt.Fprintf(os.Stderr, "benchwalk: -gogc must be >= 0 (0 leaves the runtime default), got %d\n", *gogc)
		os.Exit(2)
	}
	if *compactN < 0 {
		fmt.Fprintf(os.Stderr, "benchwalk: -compactevery must be >= 0, got %d\n", *compactN)
		os.Exit(2)
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "benchwalk: unknown -workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}
	if *walpol != "sweep" && *walpol != "off" {
		if _, err := parsePolicy(*walpol); err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk:", err)
			os.Exit(2)
		}
	}
	var lintClean *bool
	lintVersion := ""
	if *lintok != "" {
		v, err := strconv.ParseBool(*lintok)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchwalk: -lintclean must be true or false, got %q\n", *lintok)
			os.Exit(2)
		}
		lintClean = &v
		lintVersion = lint.Version
	}

	if *crashchild != "" {
		// Re-exec'd by runCrashHarness; no signal handling — the parent kills
		// the storm phase with SIGKILL on purpose.
		if err := runCrashChild(*crashchild, *crashphase, *crashdir, *n, *d, *r, *eps, *seed, *updates); err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk crash child:", err)
			os.Exit(1)
		}
		return
	}
	watchSignals()

	p := runtime.GOMAXPROCS(0)
	counts := workerCounts(*workers, []int{1, p / 2, p})
	ucounts := workerCounts(*uworkers, []int{1, max(4, p)})

	if *crash {
		root, cleanup := artifactRoot(*snapdir, "benchwalk-crash-")
		defer cleanup()
		cr, err := runCrashHarness(*n, *d, *r, *eps, *seed, *updates, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk:", err)
			os.Exit(1)
		}
		rep := report{
			Timestamp:    time.Now().UTC().Format(time.RFC3339),
			GoVersion:    runtime.Version(),
			GOMAXPROCS:   p,
			NumCPU:       runtime.NumCPU(),
			GOGC:         *gogc,
			Nodes:        *n,
			EdgesPerNode: *d,
			R:            *r,
			Eps:          *eps,
			Seed:         *seed,
			LintClean:    lintClean,
			LintVersion:  lintVersion,
			Crash:        cr,
		}
		writeReport(*out, rep)
		for _, run := range cr.Runs {
			if !run.ValidateClean || !run.EstimatesMatch || !run.WalDeletesMatch {
				fmt.Fprintf(os.Stderr, "benchwalk: crash run %s failed (validate_clean=%v estimates_match=%v wal_deletes_match=%v)\n",
					run.Engine, run.ValidateClean, run.EstimatesMatch, run.WalDeletesMatch)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Printf("benchwalk: building preferential-attachment graph n=%d d=%d (GOMAXPROCS=%d, NumCPU=%d)\n",
		*n, *d, p, runtime.NumCPU())
	rng := rand.New(rand.NewPCG(*seed, 0))
	base := gen.PreferentialAttachment(*n, *d, rng)
	storm := makeStorm(*workload, *n, *updates, rng)

	rep := report{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   p,
		NumCPU:       runtime.NumCPU(),
		GOGC:         *gogc,
		Nodes:        *n,
		EdgesPerNode: *d,
		GraphEdges:   base.NumEdges(),
		R:            *r,
		Eps:          *eps,
		Seed:         *seed,
		Workload:     *workload,
		CompactEvery: *compactN,
		LintClean:    lintClean,
		LintVersion:  lintVersion,
	}

	for _, w := range counts {
		bailIfInterrupted(nil)
		res := benchOne(base, storm, *r, *eps, *seed, w)
		rep.Runs = append(rep.Runs, res)
		fmt.Printf("workers=%-3d build %7.3fs (%.2fM steps/s)   storm %7.3fs (%.0f edges/s, %d rerouted)\n",
			w, res.BuildSeconds, res.StepsPerSec/1e6, res.UpdateSeconds, res.EdgesPerSec, res.Rerouted)
	}

	if len(rep.Runs) > 1 {
		first, last := rep.Runs[0], rep.Runs[len(rep.Runs)-1]
		if first.StepsPerSec > 0 {
			rep.SpeedupBuild = last.StepsPerSec / first.StepsPerSec
		}
		fmt.Printf("build speedup %dw vs %dw: %.2fx\n", last.Workers, first.Workers, rep.SpeedupBuild)
	}

	if *mstorm {
		for _, uw := range ucounts {
			bailIfInterrupted(nil)
			res := benchMaintainer(base, storm, *r, *eps, *seed, uw, *compactN)
			rep.MaintainerStorms = append(rep.MaintainerStorms, res)
			fmt.Printf("maintainer storm uw=%-2d %7.3fs (%.0f edges/s)   skip %.1f%% (fast %d, empty %d, slow %d, noop %d)   store reads %d writes %d\n",
				uw, res.Seconds, res.EdgesPerSec, 100*res.SkipRate, res.FastSkips, res.EmptySkips, res.SlowPaths,
				res.SlowNoops, res.StoreReads, res.StoreWrites)
		}
		if s := rep.MaintainerStorms; len(s) > 1 && s[0].EdgesPerSec > 0 {
			rep.SpeedupMaintainerStorm = s[len(s)-1].EdgesPerSec / s[0].EdgesPerSec
			fmt.Printf("maintainer storm speedup %dw vs %dw: %.2fx\n",
				s[len(s)-1].UpdateWorkers, s[0].UpdateWorkers, rep.SpeedupMaintainerStorm)
		}
	}

	if *dosalsa {
		for i, uw := range ucounts {
			bailIfInterrupted(nil)
			profile := 0
			if i == len(ucounts)-1 {
				profile = *queries // query profile once, on the final store
			}
			res := benchSalsa(base, storm, *r, *eps, *seed, profile, *qwalks, uw, false, *compactN)
			rep.SalsaStorms = append(rep.SalsaStorms, res)
			fmt.Printf("salsa storm uw=%-2d      %7.3fs (%.0f edges/s)   skip %.1f%% (%d rerouted, %d revived, %d noop)\n",
				uw, res.StormSeconds, res.EdgesPerSec, 100*res.SkipRate, res.Rerouted, res.Revived, res.SlowNoops)
			if profile > 0 {
				fmt.Printf("salsa queries    %d x %d walks: %.2fms/query, store calls mean %.0f max %d (Theorem 8 ceiling %.0f), %.0f segments stitched/query\n",
					res.Queries, res.QueryWalks, res.MeanQueryMillis, res.MeanStoreCalls, res.MaxStoreCalls,
					res.Theorem8Bound, res.MeanStitched)
			}
		}
		if s := rep.SalsaStorms; len(s) > 1 && s[0].EdgesPerSec > 0 {
			rep.SpeedupSalsaStorm = s[len(s)-1].EdgesPerSec / s[0].EdgesPerSec
			fmt.Printf("salsa storm speedup %dw vs %dw: %.2fx\n",
				s[len(s)-1].UpdateWorkers, s[0].UpdateWorkers, rep.SpeedupSalsaStorm)
		}
		// Indexed-vs-scan comparison: the same serialized storm with the
		// pending-position index bypassed (full-path candidate enumeration).
		legacy := benchSalsa(base, storm, *r, *eps, *seed, 0, *qwalks, ucounts[0], true, *compactN)
		legacy.LegacyScan = true
		rep.SalsaStorms = append(rep.SalsaStorms, legacy)
		fmt.Printf("salsa storm uw=%-2d scan %7.3fs (%.0f edges/s)   [legacy full-path scan]\n",
			legacy.UpdateWorkers, legacy.StormSeconds, legacy.EdgesPerSec)
		if legacy.EdgesPerSec > 0 {
			rep.SpeedupIndexVsScan = rep.SalsaStorms[0].EdgesPerSec / legacy.EdgesPerSec
			fmt.Printf("salsa index vs full scan (uw=%d): %.2fx\n", ucounts[0], rep.SpeedupIndexVsScan)
		}
		if *queries > 0 {
			cq := benchConcurrentQueries(base, storm, *r, *eps, *seed, *queries, *qwalks, ucounts[len(ucounts)-1])
			rep.ConcurrentQueries = &cq
			fmt.Printf("concurrent queries (storm uw=%d): %d queries in flight, %.2fms/query (p50 %.2f, p99 %.2f), %.0f calls/query (max %d), %.0f epoch drift/query; storm %.0f edges/s\n",
				cq.StormWorkers, cq.Queries, cq.MeanQueryMillis, cq.P50QueryMillis, cq.P99QueryMillis,
				cq.MeanStoreCalls, cq.MaxStoreCalls, cq.MeanEpochDrift, cq.StormEdgesPerSec)
			sv := benchServe(base, storm, *r, *eps, *seed, *queries, *qwalks, ucounts[len(ucounts)-1])
			rep.ServeQueries = &sv
			fmt.Printf("serve tier (storm uw=%d): %d served, hit rate %.0f%% (%d hits, %d misses, %d coalesced, %d raced), %.2fms/query (p50 %.2f, p99 %.2f), max calls %d\n",
				sv.StormWorkers, sv.Queries, 100*sv.HitRate, sv.Hits, sv.Misses, sv.Coalesced, sv.Raced,
				sv.MeanQueryMillis, sv.P50QueryMillis, sv.P99QueryMillis, sv.MaxStoreCalls)
			fmt.Printf("serve quiescent: cold %.3fms vs hit %.5fms = %.0fx, recompute match %v, validate clean %v\n",
				sv.ColdMillis, sv.HitMillis, sv.HitSpeedup, sv.HitRecomputeMatch, sv.ValidateClean)
		}
	}

	if *doadv && *dosalsa {
		for _, name := range workloadNames[1:] { // skip uniform: that is the main storm
			bailIfInterrupted(nil)
			res := benchAdversarial(base, name, *n, *updates, *r, *eps, *seed, *compactN)
			rep.AdversarialStorms = append(rep.AdversarialStorms, res)
			fmt.Printf("adversarial %-13s %7.3fs (%.0f edges/s)   skip %.1f%% (%d rerouted, %d revived, %d noop)   arena %d/%d (%.0f%% garbage)\n",
				res.Workload, res.Seconds, res.EdgesPerSec, 100*res.SkipRate, res.Rerouted, res.Revived, res.SlowNoops,
				res.ArenaLive, res.ArenaTotal, 100*res.ArenaGarbage)
		}
	}

	if *dochurn {
		bailIfInterrupted(nil)
		ch := benchChurn(base, storm, *r, *eps, *seed, ucounts, *compactN)
		rep.Churn = &ch
		for _, cs := range ch.Storms {
			fmt.Printf("churn storm %-8s uw=%-2d %7.3fs (%.0f events/s, %.0f deletes/s; %d deletions, %d missed, %d rerouted, %d truncated)\n",
				cs.Engine, cs.UpdateWorkers, cs.Seconds, cs.EventsPerSec, cs.DeletesPerSec,
				cs.Deletions, cs.DelMisses, cs.DelRerouted, cs.DelTruncated)
		}
		if w := ch.Window; w != nil {
			fmt.Printf("window capacity %d: %d streamed, %d expired (turnover %.2f), %.0f edges/s (%d rerouted, %d truncated on expiry)\n",
				w.Capacity, w.Streamed, w.Expired, w.Turnover, w.EdgesPerSec, w.Rerouted, w.Truncated)
		}
	}

	if *walpol != "off" {
		bailIfInterrupted(nil)
		policies := []string{"record", "batch:64", "none"}
		if *walpol != "sweep" {
			policies = []string{*walpol}
		}
		root, cleanup := artifactRoot(*snapdir, "benchwalk-wal-")
		dur, err := benchDurability(base, storm, *r, *eps, *seed, root, policies)
		cleanup()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk:", err)
			os.Exit(1)
		}
		rep.Durability = dur
	}

	writeReport(*out, rep)
}

// writeReport marshals and atomically writes the report (no-op when path is
// empty), exiting loudly on failure.
func writeReport(path string, rep report) {
	if path == "" {
		return
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchwalk:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := writeFileAtomic(path, buf); err != nil {
		fmt.Fprintln(os.Stderr, "benchwalk:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeFileAtomic writes data via a temp file + rename so an interrupt or
// crash mid-write never leaves a truncated file under the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// artifactRoot resolves where durability artifacts (WALs, snapshots) live: the
// -snapshot directory when given (kept afterwards), else a temp dir with a
// cleanup that removes it.
func artifactRoot(flagDir, tmpPrefix string) (string, func()) {
	if flagDir != "" {
		return flagDir, func() {}
	}
	root, err := os.MkdirTemp("", tmpPrefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchwalk:", err)
		os.Exit(1)
	}
	return root, func() { os.RemoveAll(root) }
}

// interrupted flips when SIGINT/SIGTERM arrives; the benchmark loops poll it
// at safe points instead of dying mid-write.
var interrupted atomic.Bool

func watchSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		fmt.Fprintf(os.Stderr, "benchwalk: caught %v, stopping at the next safe point (repeat to kill)\n", s)
		interrupted.Store(true)
		signal.Stop(ch) // a second signal gets default handling: immediate death
	}()
}

// bailIfInterrupted exits with a non-zero status at a safe point once a
// signal has arrived. When a live persistence manager is passed, it flushes a
// final snapshot first so the artifact directory holds a clean resume point
// rather than a mid-storm WAL.
func bailIfInterrupted(pm *persist.Manager) {
	if !interrupted.Load() {
		return
	}
	if pm != nil {
		if err := pm.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk: final checkpoint:", err)
		} else if err := pm.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchwalk: final close:", err)
		} else {
			fmt.Fprintln(os.Stderr, "benchwalk: flushed final snapshot")
		}
	}
	fmt.Fprintln(os.Stderr, "benchwalk: interrupted, no report written")
	os.Exit(130)
}

// verifyReport loads a previously written report and checks it is sane: it
// parses, every run is present, and every recorded throughput is positive.
// CI runs it on the smoke report so a harness regression (bad flags, a
// storm that silently did nothing) fails the build instead of committing a
// corrupt BENCH_walkgen.json shape.
func verifyReport(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s does not parse as a benchwalk report: %w", path, err)
	}
	// Lint provenance, when recorded, must attest a clean tree and name the
	// analyzer-suite revision that judged it.
	if rep.LintClean != nil {
		if !*rep.LintClean {
			return fmt.Errorf("%s records lint_clean=false: the measured tree failed walklint", path)
		}
		if rep.LintVersion == "" {
			return fmt.Errorf("%s records a walklint verdict without lint_version provenance", path)
		}
	}
	if rep.Crash != nil {
		if len(rep.Crash.Runs) == 0 {
			return fmt.Errorf("%s has a crash section with no runs", path)
		}
		for _, c := range rep.Crash.Runs {
			if !c.ValidateClean {
				return fmt.Errorf("%s: crash run %s recovered into an invalid store", path, c.Engine)
			}
			if !c.EstimatesMatch {
				return fmt.Errorf("%s: crash run %s resumed to estimates that differ from the uninterrupted run", path, c.Engine)
			}
			if c.DeleteOps <= 0 {
				return fmt.Errorf("%s: crash run %s stormed without deletions (the harness is a churn storm)", path, c.Engine)
			}
			if !c.WalDeletesMatch {
				return fmt.Errorf("%s: crash run %s recovered remove-edge markers that disagree with the regenerated deletions", path, c.Engine)
			}
			if c.KillAtEdge < 0 || c.RecoveredCursor >= int64(c.StormEdges) {
				return fmt.Errorf("%s: crash run %s has incoherent kill/cursor positions (%d, %d of %d)",
					path, c.Engine, c.KillAtEdge, c.RecoveredCursor, c.StormEdges)
			}
		}
	}
	if len(rep.Runs) == 0 {
		if rep.Crash != nil {
			return nil // crash-only report: no engine runs by design
		}
		return fmt.Errorf("%s has no engine runs", path)
	}
	if rep.Nodes < 2 || rep.GraphEdges <= 0 {
		return fmt.Errorf("%s records a degenerate graph (n=%d, edges=%d)", path, rep.Nodes, rep.GraphEdges)
	}
	for _, r := range rep.Runs {
		if r.StepsPerSec <= 0 || r.EdgesPerSec <= 0 {
			return fmt.Errorf("%s: engine run at %d workers has non-positive throughput (%v steps/s, %v edges/s)",
				path, r.Workers, r.StepsPerSec, r.EdgesPerSec)
		}
	}
	for _, m := range rep.MaintainerStorms {
		if m.EdgesPerSec <= 0 {
			return fmt.Errorf("%s: maintainer storm at uw=%d has non-positive throughput", path, m.UpdateWorkers)
		}
		if m.SlowNoops != 0 {
			return fmt.Errorf("%s: maintainer storm at uw=%d broke the SlowNoops == 0 invariant (%d)", path, m.UpdateWorkers, m.SlowNoops)
		}
	}
	// The garbage-ratio bound -compactevery promises: every arena column in a
	// compacting report must show the maintainers actually reclaiming
	// ReplaceTail churn rather than accumulating it.
	const maxGarbage = 0.5
	checkArena := func(where string, live, total int64, garbage float64) error {
		if live < 0 || total < live {
			return fmt.Errorf("%s: %s has incoherent arena stats (live=%d total=%d)", path, where, live, total)
		}
		if rep.CompactEvery > 0 && garbage > maxGarbage {
			return fmt.Errorf("%s: %s ended with %.0f%% arena garbage despite compact_every=%d (bound %.0f%%)",
				path, where, 100*garbage, rep.CompactEvery, 100*maxGarbage)
		}
		return nil
	}
	for _, m := range rep.MaintainerStorms {
		if err := checkArena(fmt.Sprintf("maintainer storm at uw=%d", m.UpdateWorkers), m.ArenaLive, m.ArenaTotal, m.ArenaGarbage); err != nil {
			return err
		}
	}
	for _, s := range rep.SalsaStorms {
		if s.EdgesPerSec <= 0 {
			return fmt.Errorf("%s: salsa storm at uw=%d has non-positive throughput", path, s.UpdateWorkers)
		}
		if s.SlowNoops != 0 {
			return fmt.Errorf("%s: salsa storm at uw=%d broke the SlowNoops == 0 invariant (%d)", path, s.UpdateWorkers, s.SlowNoops)
		}
		if err := checkArena(fmt.Sprintf("salsa storm at uw=%d", s.UpdateWorkers), s.ArenaLive, s.ArenaTotal, s.ArenaGarbage); err != nil {
			return err
		}
		// The paper's headline cost bound, asserted on the measured report:
		// no profiled query may exceed its Theorem 8 ceiling.
		if s.Queries > 0 && float64(s.MaxStoreCalls) > s.Theorem8Bound {
			return fmt.Errorf("%s: salsa query profile at uw=%d exceeds the Theorem 8 ceiling (%d calls > %.0f)",
				path, s.UpdateWorkers, s.MaxStoreCalls, s.Theorem8Bound)
		}
	}
	// The index's headline win is a regression guard: a report that records
	// the indexed-vs-scan comparison at all must show the index ahead.
	if rep.SpeedupIndexVsScan > 0 && rep.SpeedupIndexVsScan < 1 {
		return fmt.Errorf("%s: pending-position index is SLOWER than the legacy full-path scan (%.2fx, want >= 1x)",
			path, rep.SpeedupIndexVsScan)
	}
	for _, a := range rep.AdversarialStorms {
		if a.EdgesPerSec <= 0 {
			return fmt.Errorf("%s: adversarial storm %q has non-positive throughput", path, a.Workload)
		}
		if a.SlowNoops != 0 {
			return fmt.Errorf("%s: adversarial storm %q broke the SlowNoops == 0 invariant (%d)", path, a.Workload, a.SlowNoops)
		}
		if err := checkArena(fmt.Sprintf("adversarial storm %q", a.Workload), a.ArenaLive, a.ArenaTotal, a.ArenaGarbage); err != nil {
			return err
		}
	}
	if cq := rep.ConcurrentQueries; cq != nil && cq.Queries > 0 {
		if float64(cq.MaxStoreCalls) > cq.Theorem8Bound {
			return fmt.Errorf("%s: concurrent query profile exceeds the Theorem 8 ceiling (%d calls > %.0f)",
				path, cq.MaxStoreCalls, cq.Theorem8Bound)
		}
		if cq.P50QueryMillis <= 0 || cq.P99QueryMillis < cq.P50QueryMillis {
			return fmt.Errorf("%s: concurrent query profile has incoherent percentiles (p50 %.3f, p99 %.3f)",
				path, cq.P50QueryMillis, cq.P99QueryMillis)
		}
	}
	if sv := rep.ServeQueries; sv != nil {
		if sv.SlowNoops != 0 {
			return fmt.Errorf("%s: serve profile broke the SlowNoops == 0 invariant (%d)", path, sv.SlowNoops)
		}
		if !sv.ValidateClean {
			return fmt.Errorf("%s: serve profile left the walk store invalid", path)
		}
		if !sv.HitRecomputeMatch {
			return fmt.Errorf("%s: serve profile served a cache hit that differs from a fresh recompute at the same epoch", path)
		}
		if sv.Hits <= 0 {
			return fmt.Errorf("%s: serve profile never hit its cache", path)
		}
		if sv.HitSpeedup < 3 {
			return fmt.Errorf("%s: serve cache hits are only %.1fx faster than cold computes, want >= 3x", path, sv.HitSpeedup)
		}
		if float64(sv.MaxStoreCalls) > sv.Theorem8Bound {
			return fmt.Errorf("%s: serve profile exceeds the Theorem 8 ceiling (%d calls > %.0f)",
				path, sv.MaxStoreCalls, sv.Theorem8Bound)
		}
		if sv.Queries <= 0 || sv.P50QueryMillis <= 0 || sv.P99QueryMillis < sv.P50QueryMillis {
			return fmt.Errorf("%s: serve profile has incoherent latency columns (%d queries, p50 %.3f, p99 %.3f)",
				path, sv.Queries, sv.P50QueryMillis, sv.P99QueryMillis)
		}
	}
	if ch := rep.Churn; ch != nil {
		if len(ch.Storms) == 0 {
			return fmt.Errorf("%s has a churn section with no storms", path)
		}
		for _, cs := range ch.Storms {
			if cs.Deletions <= 0 || cs.DeletesPerSec <= 0 || cs.EventsPerSec <= 0 {
				return fmt.Errorf("%s: churn storm %s uw=%d recorded no deletion throughput (%d deletions, %.0f del/s)",
					path, cs.Engine, cs.UpdateWorkers, cs.Deletions, cs.DeletesPerSec)
			}
			if cs.SlowNoops != 0 {
				return fmt.Errorf("%s: churn storm %s uw=%d broke the SlowNoops == 0 invariant (%d)",
					path, cs.Engine, cs.UpdateWorkers, cs.SlowNoops)
			}
			// Serialized, a shrink-grow stream only ever deletes live edges;
			// a miss means the reroute rule and the stream disagree about the
			// graph. (Parallel replays may legitimately miss on races.)
			if cs.UpdateWorkers == 1 && cs.DelMisses != 0 {
				return fmt.Errorf("%s: serialized churn storm %s missed %d deletions of live edges",
					path, cs.Engine, cs.DelMisses)
			}
		}
		if w := ch.Window; w != nil {
			if w.EdgesPerSec <= 0 || w.Turnover <= 0 {
				return fmt.Errorf("%s: window profile recorded no turnover (%.2f at %.0f edges/s)",
					path, w.Turnover, w.EdgesPerSec)
			}
			if w.Streamed > w.Capacity && w.Expired != w.Streamed-w.Capacity {
				return fmt.Errorf("%s: window profile held %d edges too many/few (%d streamed, %d expired, capacity %d)",
					path, w.Streamed-w.Capacity-w.Expired, w.Streamed, w.Expired, w.Capacity)
			}
			if w.DeleteMissed != 0 {
				return fmt.Errorf("%s: window profile lost track of %d windowed edges", path, w.DeleteMissed)
			}
			if err := checkArena("window profile", w.ArenaLive, w.ArenaTotal, w.ArenaGarbage); err != nil {
				return err
			}
		}
	}
	for _, dr := range rep.Durability {
		if dr.EdgesPerSec <= 0 {
			return fmt.Errorf("%s: durability row %s has non-positive throughput", path, dr.FsyncPolicy)
		}
		if dr.RecoverySeconds <= 0 || dr.ReplayedRecords <= 0 {
			return fmt.Errorf("%s: durability row %s recorded no recovery work (%.3fs, %d replayed)",
				path, dr.FsyncPolicy, dr.RecoverySeconds, dr.ReplayedRecords)
		}
	}
	return nil
}

// benchOne times store construction and the update storm at one worker
// count, on a private clone of the graph so runs do not contaminate each
// other: a PageRank maintainer bootstraps with w build workers
// (engine.BuildStore) and consumes the storm through ApplyEdges with w
// update workers. Rerouted counts reroutes and revivals.
func benchOne(base *graph.Graph, storm []graph.Edge, r int, eps float64, seed uint64, w int) runResult {
	mt := pagerank.New(socialstore.New(base.Clone()), pagerank.Config{Eps: eps, R: r, Workers: w, UpdateWorkers: w, Seed: seed})

	t0 := time.Now()
	steps := mt.Bootstrap()
	build := time.Since(t0)

	t1 := time.Now()
	mt.ApplyEdges(storm)
	storming := time.Since(t1)

	c := mt.Counters()
	res := runResult{
		Workers:       w,
		BuildSeconds:  build.Seconds(),
		Segments:      mt.Store().NumSegments(),
		BuildSteps:    steps,
		UpdateSeconds: storming.Seconds(),
		UpdateEdges:   len(storm),
		Rerouted:      c.Rerouted + c.Revived,
	}
	if s := build.Seconds(); s > 0 {
		res.StepsPerSec = float64(steps) / s
	}
	if s := storming.Seconds(); s > 0 {
		res.EdgesPerSec = float64(len(storm)) / s
	}
	return res
}

// benchMaintainer replays the storm through the incremental maintainer on a
// private clone of the graph, timing only the arrival loop. The metrics are
// reset after bootstrap so the report isolates the incremental phase the
// paper's cost analysis is about.
func benchMaintainer(base *graph.Graph, storm []graph.Edge, r int, eps float64, seed uint64, uw, compactEvery int) maintainerResult {
	soc := socialstore.New(base.Clone())
	mt := pagerank.New(soc, pagerank.Config{Eps: eps, R: r, Seed: seed, UpdateWorkers: uw, CompactEvery: compactEvery})
	mt.Bootstrap()
	soc.ResetMetrics()

	t0 := time.Now()
	mt.ApplyEdges(storm)
	el := time.Since(t0)

	c := mt.Counters()
	met := soc.Metrics()
	res := maintainerResult{
		UpdateWorkers: uw,
		Seconds:       el.Seconds(),
		Edges:         len(storm),
		FastSkips:     c.FastSkips,
		EmptySkips:    c.EmptySkips,
		SlowPaths:     c.SlowPaths,
		SlowNoops:     c.SlowNoops,
		SkipRate:      c.SkipRate(),
		Rerouted:      c.Rerouted,
		Revived:       c.Revived,
		StoreReads:    met.Reads,
		StoreWrites:   met.Writes,
	}
	res.ArenaLive, res.ArenaTotal, res.ArenaGarbage = arenaColumns(mt.Store())
	if s := el.Seconds(); s > 0 {
		res.EdgesPerSec = float64(len(storm)) / s
	}
	return res
}

// arenaColumns snapshots the walk store's arena occupancy for a report row:
// live slots, total slots, and the garbage fraction ReplaceTail churn left
// behind (or compaction reclaimed).
func arenaColumns(s *walkstore.Store) (live, total int64, garbage float64) {
	live, total = s.ArenaStats()
	if total > 0 {
		garbage = float64(total-live) / float64(total)
	}
	return live, total, garbage
}

// benchSalsa replays the storm through the SALSA maintainer on a private
// clone, then (when queries > 0) profiles personalized queries from random
// sources: wall-clock latency and the measured Social Store calls per query
// against the Theorem 8 accounting ceiling.
func benchSalsa(base *graph.Graph, storm []graph.Edge, r int, eps float64, seed uint64, queries, qwalks, uw int, legacyScan bool, compactEvery int) salsaResult {
	soc := socialstore.New(base.Clone())
	mt := salsa.New(soc, salsa.Config{Eps: eps, R: r, Seed: seed, QueryWalks: qwalks, UpdateWorkers: uw, LegacyScan: legacyScan, CompactEvery: compactEvery})
	t0 := time.Now()
	mt.Bootstrap()
	boot := time.Since(t0)
	soc.ResetMetrics()

	t1 := time.Now()
	mt.ApplyEdges(storm)
	storming := time.Since(t1)

	c := mt.Counters()
	res := salsaResult{
		UpdateWorkers:    uw,
		BootstrapSeconds: boot.Seconds(),
		StormSeconds:     storming.Seconds(),
		Edges:            len(storm),
		SkipRate:         c.SkipRate(),
		SlowNoops:        c.SlowNoops,
		Rerouted:         c.Rerouted,
		Revived:          c.Revived,
		Queries:          queries,
		QueryWalks:       qwalks,
	}
	res.ArenaLive, res.ArenaTotal, res.ArenaGarbage = arenaColumns(mt.Store())
	if s := storming.Seconds(); s > 0 {
		res.EdgesPerSec = float64(len(storm)) / s
	}
	if queries == 0 {
		return res
	}

	rng := rand.New(rand.NewPCG(seed, 77))
	nodes := soc.Graph().Nodes()
	var totalCalls, totalStitched int64
	var totalSec float64
	samples := make([]float64, 0, queries)
	for i := 0; i < queries; i++ {
		src := nodes[rng.IntN(len(nodes))]
		tq := time.Now()
		q := mt.Personalized(src)
		el := time.Since(tq).Seconds()
		totalSec += el
		samples = append(samples, el)
		st := q.Stats()
		totalCalls += st.StoreCalls
		totalStitched += st.StitchedSegments
		if st.StoreCalls > res.MaxStoreCalls {
			res.MaxStoreCalls = st.StoreCalls
		}
		res.Theorem8Bound = st.Theorem8Bound
	}
	res.MeanQueryMillis = totalSec / float64(queries) * 1e3
	res.P50QueryMillis = percentileMillis(samples, 50)
	res.P99QueryMillis = percentileMillis(samples, 99)
	res.MeanStoreCalls = float64(totalCalls) / float64(queries)
	res.MeanStitched = float64(totalStitched) / float64(queries)
	return res
}

// percentileMillis returns the nearest-rank p-th percentile of the
// second-valued latency samples, in milliseconds. The slice is sorted in
// place; a sorted slice is the whole implementation — tail latency needs no
// dependency.
func percentileMillis(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1] * 1e3
}

// benchConcurrentQueries profiles the read-mostly query path under write
// load: a parallel SALSA storm consumes arrivals while two query goroutines
// issue personalized queries until the storm drains.
func benchConcurrentQueries(base *graph.Graph, storm []graph.Edge, r int, eps float64, seed uint64, queries, qwalks, uw int) concurrentQueryResult {
	soc := socialstore.New(base.Clone())
	mt := salsa.New(soc, salsa.Config{Eps: eps, R: r, Seed: seed, QueryWalks: qwalks, UpdateWorkers: uw})
	mt.Bootstrap()

	const queriers = 2
	res := concurrentQueryResult{StormWorkers: uw, Queriers: queriers, QueryWalks: qwalks}
	nodes := soc.Graph().Nodes()
	var mu sync.Mutex
	var totalSec float64
	var totalCalls, totalDrift int64
	var samples []float64
	// issued is the shared query budget: -queries caps the TOTAL across all
	// queriers, matching the serial profile's semantics. (It used to be
	// checked against each goroutine's private loop counter, silently
	// meaning "queries per querier".)
	var issued atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for qr := 0; qr < queriers; qr++ {
		wg.Add(1)
		go func(qr int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 88+uint64(qr)))
			for {
				select {
				case <-done:
					return
				default:
				}
				if queries > 0 && issued.Add(1) > int64(queries) {
					return
				}
				src := nodes[rng.IntN(len(nodes))]
				tq := time.Now()
				st := mt.Personalized(src).Stats()
				el := time.Since(tq).Seconds()
				mu.Lock()
				res.Queries++
				totalSec += el
				samples = append(samples, el)
				totalCalls += st.StoreCalls
				totalDrift += st.EndEpoch - st.StartEpoch
				if st.StoreCalls > res.MaxStoreCalls {
					res.MaxStoreCalls = st.StoreCalls
				}
				res.Theorem8Bound = st.Theorem8Bound
				mu.Unlock()
			}
		}(qr)
	}

	t0 := time.Now()
	mt.ApplyEdges(storm)
	el := time.Since(t0)
	close(done)
	wg.Wait()

	res.StormSeconds = el.Seconds()
	if s := el.Seconds(); s > 0 {
		res.StormEdgesPerSec = float64(len(storm)) / s
	}
	if res.Queries > 0 {
		res.MeanQueryMillis = totalSec / float64(res.Queries) * 1e3
		res.P50QueryMillis = percentileMillis(samples, 50)
		res.P99QueryMillis = percentileMillis(samples, 99)
		res.MeanStoreCalls = float64(totalCalls) / float64(res.Queries)
		res.MeanEpochDrift = float64(totalDrift) / float64(res.Queries)
	}
	return res
}

// sameServed reports whether a served query and a fresh recompute on the
// same RNG stream are bitwise identical: full authority distribution plus
// the step/call accounting. This is the serving tier's correctness bar,
// checked here on the live benchmark rather than only in unit tests.
func sameServed(a, b *salsa.Query) bool {
	as, bs := a.Stats(), b.Stats()
	if as.Steps != bs.Steps || as.BareSteps != bs.BareSteps ||
		as.StitchedSegments != bs.StitchedSegments || as.StitchedSteps != bs.StitchedSteps ||
		as.StoreCalls != bs.StoreCalls || as.Stream != bs.Stream || as.StripeMask != bs.StripeMask {
		return false
	}
	am, bm := a.AuthorityAll(), b.AuthorityAll()
	if len(am) != len(bm) {
		return false
	}
	for v, x := range am {
		if bm[v] != x {
			return false
		}
	}
	return true
}

// benchServe profiles the internal/serve tier. Racing phase: queriers
// hammer a hot-spot source mix through the cache while a parallel storm
// consumes arrivals — sustained serving under write load. Quiescent phase:
// on the settled store, time cold computes against cache-hit repeats per
// source and cross-check every hit bitwise against a fresh recompute on the
// hit's recorded stream.
func benchServe(base *graph.Graph, storm []graph.Edge, r int, eps float64, seed uint64, queries, qwalks, uw int) serveResult {
	soc := socialstore.New(base.Clone())
	mt := salsa.New(soc, salsa.Config{Eps: eps, R: r, Seed: seed, QueryWalks: qwalks, UpdateWorkers: uw})
	srv := serve.New(mt, serve.Config{})
	mt.Bootstrap()

	const queriers = 2
	hot := min(16, base.NumNodes())
	res := serveResult{StormWorkers: uw, Queriers: queriers, QueryWalks: qwalks, HotSources: hot}
	nodes := soc.Graph().Nodes()
	var mu sync.Mutex
	var totalSec float64
	var samples []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for qr := 0; qr < queriers; qr++ {
		wg.Add(1)
		go func(qr int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99+uint64(qr)))
			for {
				// The hot-spot mix a busy hub sees: mostly repeats over a few
				// sources (cacheable), a sprinkle of cold tails.
				src := nodes[rng.IntN(hot)]
				if rng.IntN(8) == 0 {
					src = nodes[rng.IntN(len(nodes))]
				}
				tq := time.Now()
				out := srv.Personalized(src)
				el := time.Since(tq).Seconds()
				mu.Lock()
				res.Queries++
				totalSec += el
				samples = append(samples, el)
				if out.StoreCalls > res.MaxStoreCalls {
					res.MaxStoreCalls = out.StoreCalls
				}
				res.Theorem8Bound = out.Query.Stats().Theorem8Bound
				mu.Unlock()
				// Issue at least one query per querier even if the storm
				// drains instantly, so the latency columns are never empty.
				select {
				case <-done:
					return
				default:
				}
			}
		}(qr)
	}

	t0 := time.Now()
	srv.ApplyEdges(storm)
	el := time.Since(t0)
	close(done)
	wg.Wait()

	res.StormSeconds = el.Seconds()
	if s := el.Seconds(); s > 0 {
		res.StormEdgesPerSec = float64(len(storm)) / s
	}
	res.MeanQueryMillis = totalSec / float64(res.Queries) * 1e3
	res.P50QueryMillis = percentileMillis(samples, 50)
	res.P99QueryMillis = percentileMillis(samples, 99)

	// Snapshot cache accounting here so the hit-rate columns describe the
	// racing phase alone — the quiescent phase below deliberately skews the
	// mix (forced misses, guaranteed hit repeats).
	st := srv.Stats()
	res.Hits, res.Misses, res.Coalesced = st.Hits, st.Misses, st.Coalesced
	res.Raced, res.Invalidated = st.Raced, st.Invalidated
	if n := st.Hits + st.Misses; n > 0 {
		res.HitRate = float64(st.Hits) / float64(n)
	}

	// Quiescent phase: cold computes vs cached hits on the settled store.
	// Invalidate first so "cold" really recomputes, then repeat each source;
	// every hit must replay bitwise through PersonalizedStream.
	const hitRepeats = 3
	res.HitRecomputeMatch = true
	pairs := max(queries, 5)
	var coldSec, hitSec float64
	var hits int
	for i := 0; i < pairs; i++ {
		src := nodes[i%hot]
		srv.Invalidate(src)
		tq := time.Now()
		cold := srv.Personalized(src)
		coldSec += time.Since(tq).Seconds()
		if cold.Hit {
			res.HitRecomputeMatch = false // cold after Invalidate cannot hit
		}
		for j := 0; j < hitRepeats; j++ {
			tq = time.Now()
			out := srv.Personalized(src)
			hitSec += time.Since(tq).Seconds()
			hits++
			if !out.Hit || !sameServed(out.Query, mt.PersonalizedStream(src, out.Stream)) {
				res.HitRecomputeMatch = false
			}
		}
	}
	res.ColdMillis = coldSec / float64(pairs) * 1e3
	res.HitMillis = hitSec / float64(hits) * 1e3
	if res.HitMillis > 0 {
		res.HitSpeedup = res.ColdMillis / res.HitMillis
	}

	res.SlowNoops = mt.Counters().SlowNoops
	res.ValidateClean = mt.Store().Validate() == nil
	return res
}

// benchAdversarial replays one named adversarial arrival workload through
// the serialized SALSA maintainer on a private clone — the apples-to-apples
// throughput columns across stream shapes that the batching work is judged
// on. A fresh stream is drawn per workload from a name-salted seed so the
// shapes do not share arrival sequences.
func benchAdversarial(base *graph.Graph, name string, n, m, r int, eps float64, seed uint64, compactEvery int) adversarialResult {
	var salt uint64
	for i, ch := range []byte(name) {
		salt += uint64(ch) << (i % 8)
	}
	rng := rand.New(rand.NewPCG(seed, 0xadd+salt))
	storm := makeStorm(name, n, m, rng)

	soc := socialstore.New(base.Clone())
	mt := salsa.New(soc, salsa.Config{Eps: eps, R: r, Seed: seed, UpdateWorkers: 1, CompactEvery: compactEvery})
	mt.Bootstrap()

	t0 := time.Now()
	mt.ApplyEdges(storm)
	el := time.Since(t0)

	c := mt.Counters()
	res := adversarialResult{
		Workload:  name,
		Seconds:   el.Seconds(),
		Edges:     len(storm),
		SkipRate:  c.SkipRate(),
		SlowNoops: c.SlowNoops,
		Rerouted:  c.Rerouted,
		Revived:   c.Revived,
	}
	res.ArenaLive, res.ArenaTotal, res.ArenaGarbage = arenaColumns(mt.Store())
	if s := el.Seconds(); s > 0 {
		res.EdgesPerSec = float64(len(storm)) / s
	}
	return res
}

// benchChurn folds the update storm into a shrink-grow churn stream and
// replays it through both incremental maintainers at each update-worker
// count — the deletion-throughput profile of the reverse reroute rule —
// then streams the raw storm through a serialized PageRank maintainer as a
// sliding window at a capacity of a quarter of the stream, so three
// quarters of the arrivals expire back out through the deletion path.
// Every replay runs on a private clone so the profiles do not contaminate
// each other.
func benchChurn(base *graph.Graph, storm []graph.Edge, r int, eps float64, seed uint64, ucounts []int, compactEvery int) churnReport {
	events := gen.ShrinkGrowStream(storm, 4, 0.3, rand.New(rand.NewPCG(seed, 0xc1124)))
	arrivals, deletions := 0, 0
	for _, ev := range events {
		if ev.Del {
			deletions++
		} else {
			arrivals++
		}
	}

	var chr churnReport
	row := func(engine string, uw int, el time.Duration, misses, rerouted, truncated, slowNoops int64) churnResult {
		res := churnResult{
			Engine: engine, UpdateWorkers: uw, Seconds: el.Seconds(),
			Events: len(events), Arrivals: arrivals, Deletions: deletions,
			DelMisses: misses, DelRerouted: rerouted, DelTruncated: truncated, SlowNoops: slowNoops,
		}
		if s := el.Seconds(); s > 0 {
			res.EventsPerSec = float64(len(events)) / s
			res.DeletesPerSec = float64(deletions) / s
		}
		return res
	}
	for _, uw := range ucounts {
		mt := pagerank.New(socialstore.New(base.Clone()), pagerank.Config{Eps: eps, R: r, Seed: seed, UpdateWorkers: uw, CompactEvery: compactEvery})
		mt.Bootstrap()
		t0 := time.Now()
		mt.ApplyEvents(events)
		c := mt.Counters()
		chr.Storms = append(chr.Storms, row("pagerank", uw, time.Since(t0), c.DelMisses, c.DelRerouted, c.DelTruncated, c.SlowNoops))
	}
	for _, uw := range ucounts {
		mt := salsa.New(socialstore.New(base.Clone()), salsa.Config{Eps: eps, R: r, Seed: seed, UpdateWorkers: uw, CompactEvery: compactEvery})
		mt.Bootstrap()
		t0 := time.Now()
		mt.ApplyEvents(events)
		c := mt.Counters()
		chr.Storms = append(chr.Storms, row("salsa", uw, time.Since(t0), c.DelMisses, c.DelRerouted, c.DelTruncated, c.SlowNoops))
	}

	mt := pagerank.New(socialstore.New(base.Clone()), pagerank.Config{Eps: eps, R: r, Seed: seed, CompactEvery: compactEvery})
	mt.Bootstrap()
	capacity := max(1, len(storm)/4)
	window := graph.WindowEvents(storm, capacity)
	t0 := time.Now()
	mt.ApplyEvents(window)
	el := time.Since(t0)
	c := mt.Counters()
	expired := int(c.Deletions - c.DelMisses)
	w := windowResult{
		Capacity: capacity, Streamed: int(c.Arrivals), Expired: expired,
		Turnover: float64(expired) / float64(len(storm)), Seconds: el.Seconds(),
		Rerouted: c.DelRerouted, Truncated: c.DelTruncated, DeleteMissed: int(c.DelMisses),
	}
	w.ArenaLive, w.ArenaTotal, w.ArenaGarbage = arenaColumns(mt.Store())
	if s := el.Seconds(); s > 0 {
		w.EdgesPerSec = float64(c.Arrivals) / s
	}
	chr.Window = &w
	return chr
}

// workloadNames are the selectable -workload arrival-stream shapes; the
// first entry is the default and the tail is what -adversarial replays.
var workloadNames = []string{"uniform", "poisson-burst", "bipartite", "power-law"}

// makeStorm builds the main update storm in the requested shape. "uniform"
// delegates to updateStorm so default runs consume the RNG exactly as every
// previously committed report did.
func makeStorm(name string, n, m int, rng *rand.Rand) []graph.Edge {
	switch name {
	case "uniform":
		return updateStorm(n, m, rng)
	case "poisson-burst":
		return gen.PoissonBurstStream(n, m, 3.0, rng)
	case "bipartite":
		return gen.BipartiteStream(n/2, n-n/2, m, 0.8, rng)
	case "power-law":
		return gen.PowerLawStream(n, m, 0.9, 0.7, rng)
	}
	panic("benchwalk: unknown workload " + name)
}

// updateStorm draws random new edges over the node ID space, the arrival
// mix a live social graph would see.
func updateStorm(n, m int, rng *rand.Rand) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := graph.NodeID(rng.IntN(n))
		v := graph.NodeID(rng.IntN(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{From: u, To: v})
	}
	return edges
}

// workerCounts parses a comma-separated list, falling back to def,
// deduplicated and ascending.
func workerCounts(s string, def []int) []int {
	var counts []int
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "benchwalk: bad worker-count entry %q\n", part)
				os.Exit(2)
			}
			counts = append(counts, w)
		}
	} else {
		counts = append(counts, def...)
	}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	for len(counts) > 0 && counts[0] < 1 {
		counts = counts[1:]
	}
	return counts
}
