package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {250000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rankOf(p, tc.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", tc.n, p, tc.n-rankOf(p, tc.n))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1..1000, reversed
	}
	s := summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 || s.Max != 1000 {
		t.Fatalf("summarize = %+v", s)
	}
	// Exactly ten samples lie above the reported tail.
	if beyond := 1000 - int(s.Tail); beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
	small := summarize([]float64{3, 1, 2})
	if small.TailP != 0 || small.Tail != 3 || small.P50 != 2 {
		t.Fatalf("summarize of 3 samples = %+v", small)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Fatal("median of three must not reorder its input")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Fatal("median of an even count is the mean of the middle pair")
	}
}

func TestDueTimesAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueTimes(start, 20, 4)
	for i, d := range due {
		if want := start.Add(time.Duration(i) * 50 * time.Millisecond); !d.Equal(want) {
			t.Fatalf("due[%d] = %v, want %v", i, d, want)
		}
	}
	ops := []openOp{
		// On time: latency is the service time.
		{Due: due[0], Issued: due[0], Done: due[0].Add(5 * time.Millisecond)},
		// Issued 30 ms late behind a stall: the wait counts in its latency.
		{Due: due[1], Issued: due[1].Add(30 * time.Millisecond), Done: due[1].Add(40 * time.Millisecond)},
		// Issued early (clock skew guard): lateness never goes negative.
		{Due: due[2], Issued: due[2].Add(-time.Millisecond), Done: due[2].Add(2 * time.Millisecond)},
	}
	if got := ops[1].Latency(); got != 40*time.Millisecond {
		t.Fatalf("latency from due time = %v, want 40ms", got)
	}
	if got := ops[2].Lateness(); got != 0 {
		t.Fatalf("early issue lateness = %v, want 0", got)
	}
	if got := maxLateness(ops); got != 30 {
		t.Fatalf("max lateness = %g ms, want 30", got)
	}
}

func TestTallyCountsEachOperationOnce(t *testing.T) {
	var f tally
	f.addBatch(256, 10*time.Millisecond, 0)   // healthy batch
	f.addBatch(256, 1500*time.Millisecond, 3) // stale: all 256 fail, misses not double counted
	f.addBatch(1, 5*time.Millisecond, 1)      // one deletion miss
	f.addBatch(4, 5*time.Millisecond, 9)      // misses capped at the batch size
	f.addQuery(49 * time.Millisecond)         // within the limit
	f.addQuery(queryLimit + time.Microsecond) // slow
	f.addQuery(queryLimit)                    // exactly at the limit passes
	f.addBatch(1, freshnessLimit, 0)          // exactly at the limit passes
	if f.Attempted() != 256+256+1+4+1+3 {
		t.Fatalf("attempted = %d", f.Attempted())
	}
	if f.StaleEvents != 256 || f.MissedEvents != 5 || f.SlowQueries != 1 || f.Failed() != 262 {
		t.Fatalf("tally = %+v, failed %d", f, f.Failed())
	}
	if got, want := f.Share(), 262.0/521; got != want {
		t.Fatalf("share = %g, want %g", got, want)
	}
	if (tally{}).Share() != 0 {
		t.Fatal("an empty tally has no failures")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "ApplyEvents", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "Commit", ID: 2, Parent: 0, Start: 40, End: 60},  // overlaps ApplyEvents by 10
		{Name: "Commit", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "query", ID: 4, Parent: -1, Start: 0, End: 30},
	}
	got := selfTimes(spans)
	ns := func(s float64) int64 { return int64(math.Round(s * 1e9)) }
	// batch: children cover [10,60) and [90,100) = 60 of 100.
	if b := got["batch"]; b.Calls != 1 || ns(b.Total) != 100 || ns(b.Self) != 40 {
		t.Fatalf("batch = %+v", b)
	}
	if c := got["Commit"]; c.Calls != 2 || ns(c.Self) != 50 || ns(c.Total) != 50 {
		t.Fatalf("Commit = %+v", c)
	}
	if q := got["query"]; ns(q.Self) != 30 {
		t.Fatalf("query = %+v", q)
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *tracer
	if id := off.start("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.finish(-1)
	tr := newTracer()
	root := tr.start("batch", -1, 7)
	child := tr.start("Commit", root, 7)
	tr.finish(child)
	tr.finish(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Fatalf("span times out of order: %+v", tr.spans)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the metric
// sets the command prints in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, command %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	var e2e []struct{ Name, Unit string }
	for i, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
		if want := map[bool]string{true: "higher", false: "lower"}[endToEndUnits[min(i, len(endToEndUnits)-1)].higher]; m.Better != want {
			t.Errorf("end_to_end %s: better %q, want %q", m.Name, m.Better, want)
		}
	}
	compare("end_to_end", e2e, endToEndUnits)
	compare("per_layer", spec.PerLayer, perLayer(newResult(), nil, newResult()))
}

func TestOverheadIsPositiveWhenTracingCosts(t *testing.T) {
	slower := overhead(metric{Value: 90, higher: true}, metric{Value: 100, higher: true})
	later := overhead(metric{Value: 11}, metric{Value: 10})
	if math.Abs(slower-0.1) > 1e-12 || math.Abs(later-0.1) > 1e-12 {
		t.Fatalf("overhead: throughput %g, latency %g; want 0.1 both", slower, later)
	}
}
