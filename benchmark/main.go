// Command paperbench is the repository's benchmark: workloads built on the
// paper's traffic model (random-order arrivals of a preferential-attachment
// graph, interleaved deletions, personalized SALSA top-k served from the
// stored walks), driven through the program's public API with default
// configurations.
//
//	bash benchmark/run.sh --workload pagerank-stream --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload twice,
// untraced and then with a span around every layer call, and prints the
// per-layer metrics, each layer's self time and the tracing overhead. Every
// run checks the program's outputs and exits 1 when a check fails. The last
// line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloads = []workload{pagerankStream, salsaStream, whoToFollow}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 3

// outDir holds trace files and, while a run lasts, its durable state.
const outDir = ".bench_out"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: pagerank-stream, salsa-stream or who-to-follow")
	seed := flag.Uint64("seed", 1, "workload seed; the program's own Config.Seed stays fixed")
	seconds := flag.Float64("seconds", 12, "length of the stream phase: sets how many events a run applies")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: paperbench --workload <pagerank-stream|salsa-stream|who-to-follow> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w := workloads[i]
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	prov := provenance(w, *seed, *seconds, *trace)
	for _, k := range sortedKeys(prov) {
		fmt.Printf("# %-14s %v\n", k, prov[k])
	}
	env := &runEnv{seed: *seed, seconds: *seconds, setups: setupRepeats, dir: dir}
	var metrics []metric
	var res *result
	correct := true
	if *trace == 0 {
		t0 := time.Now()
		if res, err = w.run(env); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		fmt.Printf("#   set-ups %.3f s, stream phase %.3f s, checks %.3f s\n", sum(res.setupS), res.wallS,
			time.Since(t0).Seconds()-sum(res.setupS)-res.wallS)
		printEndToEnd(res)
		metrics = endToEnd(res)
		correct = printChecks("", res)
	} else {
		env.setups = 1
		untraced, err := w.run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s untraced: %v\n", w.name, err)
			return 1
		}
		env.tr = newTracer()
		if res, err = w.run(env); err != nil {
			fmt.Fprintf(os.Stderr, "%s traced: %v\n", w.name, err)
			return 1
		}
		layers := selfTimes(env.tr.spans)
		metrics = perLayer(res, layers, untraced)
		printTraced(res, untraced, layers, metrics)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, prov, layers, env.tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "write trace:", err)
			return 1
		}
		fmt.Printf("# trace written to %s (%d spans)\n", path, len(env.tr.spans))
		okUntraced := printChecks("untraced ", untraced)
		correct = printChecks("traced ", res) && okUntraced
	}
	printJSON(correct, res.fails, metrics)
	if !correct {
		return 1
	}
	return 0
}

// metric is one named, unit-carrying number of the report.
type metric struct {
	Name   string  `json:"-"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	higher bool    // higher is better
}

// endToEndUnits lists the end-to-end metrics BENCHMARK.json gates, in report
// order. Every workload reports them.
var endToEndUnits = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "store_calls_per_event", Unit: "calls"},
	{Name: "heap_mb", Unit: "MB"},
}

func endToEnd(r *result) []metric {
	return withValues(endToEndUnits, map[string]float64{
		"setup_s":               median(r.setupS),
		"store_calls_per_event": ratio(float64(r.storeCalls), float64(r.events)),
		"heap_mb":               r.heapMB,
	})
}

// ungated returns the end-to-end metrics that are rates and latencies: ingest
// and freshness on every workload, queries on who-to-follow, recovery on
// pagerank-stream. Every run prints them, but BENCHMARK.json does not gate
// them: on a shared 2-core host their spread over ten seeds reached 0.25 of
// the median for ingest and 0.4 to 1.3 for latencies (BASELINE.md).
func ungated(r *result) []metric {
	fresh, query := summarize(slices.Clone(r.fresh)), summarize(slices.Clone(r.query))
	out := []metric{
		{Name: "ingest_eps", Value: ratio(float64(r.events), r.wallS), Unit: "events/s", higher: true},
		{Name: "freshness_p50_ms", Value: fresh.P50, Unit: "ms"},
		{Name: "freshness_tail_ms", Value: fresh.Tail, Unit: "ms"},
	}
	if query.N > 0 {
		out = append(out,
			metric{Name: "query_p50_ms", Value: query.P50, Unit: "ms"},
			metric{Name: "query_tail_ms", Value: query.Tail, Unit: "ms"},
			metric{Name: "store_calls_per_query", Value: ratio(float64(r.queryCalls), float64(query.N)), Unit: "calls"})
	}
	if r.recoveryS > 0 {
		out = append(out, metric{Name: "recovery_s", Value: r.recoveryS, Unit: "s"})
	}
	return out
}

// layerUnits lists the per-layer metrics of the traced run. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
var layerUnits = []metric{
	{Name: "gen.s", Unit: "s"},
	{Name: "graph.build_s", Unit: "s"},
	{Name: "bootstrap.s", Unit: "s"},
	{Name: "bootstrap.steps_per_s", Unit: "1/s"},
	{Name: "socialstore.reads_per_event", Unit: "calls"},
	{Name: "socialstore.writes_per_event", Unit: "calls"},
	{Name: "socialstore.fetches_per_event", Unit: "calls"},
	{Name: "socialstore.shard_skew", Unit: "ratio"},
	{Name: "pagerank.busy_us_per_event", Unit: "us"},
	{Name: "pagerank.skip_rate", Unit: "ratio"},
	{Name: "pagerank.slow_paths_per_event", Unit: "count"},
	{Name: "pagerank.rerouted_per_event", Unit: "count"},
	{Name: "pagerank.revived_per_event", Unit: "count"},
	{Name: "pagerank.del_rerouted_per_event", Unit: "count"},
	{Name: "pagerank.del_truncated_per_event", Unit: "count"},
	{Name: "pagerank.steps_in_per_event", Unit: "count"},
	{Name: "pagerank.steps_out_per_event", Unit: "count"},
	{Name: "pagerank.useful_ratio", Unit: "ratio"},
	{Name: "pagerank.l1_to_exact", Unit: "ratio"},
	{Name: "topk.ms_per_call", Unit: "ms"},
	{Name: "salsa.busy_us_per_event", Unit: "us"},
	{Name: "salsa.skip_rate", Unit: "ratio"},
	{Name: "salsa.slow_paths_per_event", Unit: "count"},
	{Name: "salsa.rerouted_per_event", Unit: "count"},
	{Name: "salsa.revived_per_event", Unit: "count"},
	{Name: "salsa.del_rerouted_per_event", Unit: "count"},
	{Name: "salsa.del_truncated_per_event", Unit: "count"},
	{Name: "salsa.useful_ratio", Unit: "ratio"},
	{Name: "salsa.query_miss_ms", Unit: "ms"},
	{Name: "salsa.stitched_per_query", Unit: "count"},
	{Name: "salsa.bare_steps_per_query", Unit: "count"},
	{Name: "salsa.theorem8_ratio", Unit: "ratio"},
	{Name: "salsa.theorem8_worst_ratio", Unit: "ratio"},
	{Name: "salsa.epoch_drift_per_query", Unit: "count"},
	{Name: "serve.hits", Unit: "count"},
	{Name: "serve.misses", Unit: "count"},
	{Name: "serve.coalesced", Unit: "count"},
	{Name: "serve.raced", Unit: "count"},
	{Name: "serve.invalidated", Unit: "count"},
	{Name: "serve.evicted", Unit: "count"},
	{Name: "serve.hit_rate", Unit: "ratio"},
	{Name: "serve.fill_ratio", Unit: "ratio"},
	{Name: "serve.hit_ms", Unit: "ms"},
	{Name: "stream.heap_growth_mb", Unit: "MB"},
	{Name: "walkstore.mutations_per_event", Unit: "count"},
	{Name: "walkstore.segments", Unit: "count"},
	{Name: "walkstore.arena_live", Unit: "count"},
	{Name: "walkstore.arena_garbage_peak", Unit: "ratio"},
	{Name: "walkstore.compact_s", Unit: "s"},
	{Name: "walkstore.compactions", Unit: "count"},
	{Name: "persist.commit_s", Unit: "s"},
	{Name: "persist.checkpoint_s", Unit: "s"},
	{Name: "persist.checkpoints", Unit: "count"},
	{Name: "persist.wal_records_per_event", Unit: "count"},
	{Name: "persist.wal_bytes_per_event", Unit: "bytes"},
	{Name: "persist.snapshot_mb", Unit: "MB"},
	{Name: "persist.replayed", Unit: "count"},
	{Name: "loadgen.query_lateness_max_ms", Unit: "ms"},
	{Name: "loadgen.event_lateness_max_ms", Unit: "ms"},
}

// spanNames are the spans the traced run records: benchmark-level requests
// (lower case) and the layer calls inside them.
var spanNames = []string{
	"setup", "Bootstrap", "Checkpoint",
	"batch", "ApplyEvents", "LogRemoveEdge", "Commit", "MaybeCompact", "TopK",
	"event", "ApplyEdge", "ApplyDeletion",
	"query", "PersonalizedTopK",
	"recovery", "Open",
}

// perLayer is the traced run's metric set: the layer table, each span's self
// time, and the tracing overhead on the end-to-end metrics every workload
// reports.
func perLayer(traced *result, layers map[string]layerTime, untraced *result) []metric {
	out := withValues(layerUnits, traced.layer)
	for _, n := range spanNames {
		out = append(out, metric{Name: "self." + n + "_s", Value: layers[n].Self, Unit: "s"})
	}
	t, u := overheadSet(traced), overheadSet(untraced)
	for i, m := range t {
		out = append(out, metric{Name: "overhead." + m.Name, Value: overhead(m, u[i]), Unit: "share"})
	}
	return out
}

func overheadSet(r *result) []metric { return append(endToEnd(r), ungated(r)[:3]...) }

// overhead is how much worse the traced value is than the untraced one, as a
// share of the untraced value; negative when the traced pass came out ahead.
func overhead(traced, untraced metric) float64 {
	d := ratio(traced.Value-untraced.Value, untraced.Value)
	if traced.higher {
		return -d
	}
	return d
}

func withValues(units []metric, vals map[string]float64) []metric {
	out := slices.Clone(units)
	for i := range out {
		out[i].Value = vals[out[i].Name]
	}
	return out
}

func printEndToEnd(r *result) {
	for _, m := range append(endToEnd(r), ungated(r)...) {
		fmt.Printf("%-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fresh, query := summarize(slices.Clone(r.fresh)), summarize(slices.Clone(r.query))
	fmt.Printf("#   setup_s is the median of %d set-ups: %s\n", len(r.setupS), floats(r.setupS))
	fmt.Printf("#   %d events in %.3f s\n", r.events, r.wallS)
	fmt.Printf("#   heap in use after a forced GC: %.1f MB once set up (heap_mb), %.1f MB after the stream\n", r.heapMB, r.heapEndMB)
	fmt.Printf("#   freshness over %d applying calls: tail is p%g, max %.2f ms\n", fresh.N, fresh.TailP, fresh.Max)
	if query.N > 0 {
		fmt.Printf("#   queries: %d, tail is p%g, max %.2f ms\n", query.N, query.TailP, query.Max)
	}
	fmt.Printf("%-28s %14.6f %s   (%d failed of %d attempted: %d stale events, %d deletion misses, %d slow queries)\n",
		"failed_ops", r.fails.Share(), "share", r.fails.Failed(), r.fails.Attempted(),
		r.fails.StaleEvents, r.fails.MissedEvents, r.fails.SlowQueries)
}

func printTraced(traced, untraced *result, layers map[string]layerTime, metrics []metric) {
	for _, m := range metrics {
		if !strings.HasPrefix(m.Name, "self.") && !strings.HasPrefix(m.Name, "overhead.") {
			fmt.Printf("%-36s %16.6f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("# self time per span (traced pass)\n#   %-18s %9s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, n := range spanNames {
		if lt, ok := layers[n]; ok {
			fmt.Printf("#   %-18s %9d %12.6f %12.6f\n", n, lt.Calls, lt.Total, lt.Self)
		}
	}
	fmt.Printf("# tracing overhead (traced - untraced)\n")
	u := append(endToEnd(untraced), ungated(untraced)...)
	for i, m := range append(endToEnd(traced), ungated(traced)...) {
		fmt.Printf("#   %-24s %14.4f - %14.4f = %+12.4f %s (overhead %+.1f%%)\n", m.Name, m.Value, u[i].Value,
			m.Value-u[i].Value, m.Unit, 100*overhead(m, u[i]))
	}
}

// printChecks prints every correctness gate and reports whether all passed.
func printChecks(label string, r *result) bool {
	ok := true
	for _, c := range r.checks {
		if c.err != nil {
			ok = false
			fmt.Printf("check %sFAIL %s: %v\n", label, c.name, c.err)
		} else {
			fmt.Printf("check %sok   %s", label, c.name)
			if c.took > 0 {
				fmt.Printf(" (%.3f s)", c.took.Seconds())
			}
			fmt.Println()
		}
	}
	return ok
}

func printJSON(correct bool, t tally, metrics []metric) {
	byName := make(map[string]metric, len(metrics))
	for _, m := range metrics {
		byName[m.Name] = m
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": t.Attempted(), "failed": t.Failed(), "metrics": byName,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	fmt.Println(string(b))
}

// provenance is what every output records about how it was produced.
func provenance(w workload, seed uint64, seconds float64, trace int) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"workload":     w.name,
		"why":          w.why,
		"seed":         seed,
		"seconds":      seconds,
		"trace":        trace,
		"program_seed": programSeed,
		"config":       fmt.Sprintf("Eps=%g R=%d QueryWalks=%d persist=%s", walkEps, walkR, queryWalks, persistConfig("").PolicyString()),
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"gogc":         gogc,
		"commit":       gitCommit("."),
	}
}

// gitCommit reads HEAD's commit from the .git directory without running git;
// a checkout that is not a git repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
