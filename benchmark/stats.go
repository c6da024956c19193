package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder lists the percentiles a timing's tail is reported at, highest
// first. The tail of a sample set is the highest rung that still has at least
// minBeyond samples above it, so a short run never reports a percentile set
// by one or two outliers.
var tailLadder = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile returns the percentile to report as the tail of n samples,
// or 0 when even the median has fewer than minBeyond samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// rankOf is the 1-based nearest-rank position of percentile p among n sorted
// samples: ceil(p/100 * n), clamped to [1, n].
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// timing summarizes latency samples (in ms) by the median and the tail rule.
type timing struct {
	N     int
	P50   float64
	TailP float64 // the percentile reported as Tail
	Tail  float64
	Max   float64
}

// summarize sorts the samples in place and summarizes them.
func summarize(samples []float64) timing {
	t := timing{N: len(samples)}
	if t.N == 0 {
		return t
	}
	slices.Sort(samples)
	t.P50 = samples[rankOf(50, t.N)-1]
	t.TailP = tailPercentile(t.N)
	if t.TailP > 0 {
		t.Tail = samples[rankOf(t.TailP, t.N)-1]
	} else {
		t.Tail = samples[t.N-1]
	}
	t.Max = samples[t.N-1]
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Latency limits: a query answered later than queryLimit after its due time,
// or an event applied later than freshnessLimit after its hand-off, counts as
// a failed operation.
const (
	queryLimit     = 50 * time.Millisecond
	freshnessLimit = time.Second
)

// tally counts attempted and failed operations. Every event and every query
// is one attempt; each fails at most once, whatever the number of reasons.
type tally struct {
	Events, Queries           int64
	StaleEvents, MissedEvents int64 // applied over freshnessLimit; deletions counted as DelMisses
	SlowQueries               int64
}

// addBatch records n events applied by one call that took freshness from
// their hand-off, during which the maintainer counted misses new DelMisses.
// A stale batch fails all its events; otherwise each miss fails one.
func (t *tally) addBatch(n int, freshness time.Duration, misses int64) {
	t.Events += int64(n)
	if freshness > freshnessLimit {
		t.StaleEvents += int64(n)
		return
	}
	t.MissedEvents += min(misses, int64(n))
}

func (t *tally) addQuery(latency time.Duration) {
	t.Queries++
	if latency > queryLimit {
		t.SlowQueries++
	}
}

func (t tally) Attempted() int64 { return t.Events + t.Queries }
func (t tally) Failed() int64    { return t.StaleEvents + t.MissedEvents + t.SlowQueries }

// Share is failed_ops: failed over attempted operations.
func (t tally) Share() float64 {
	if t.Attempted() == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted())
}

// dueTimes is an open-loop schedule: n operations at a fixed rate, the first
// one due at start.
func dueTimes(start time.Time, perSecond float64, n int) []time.Time {
	due := make([]time.Time, n)
	step := float64(time.Second) / perSecond
	for i := range due {
		due[i] = start.Add(time.Duration(float64(i) * step))
	}
	return due
}

// openOp is one open-loop operation's timestamps. Lateness is how long after
// its due time the generator issued it; latency runs from the due time to
// completion, so a stall is charged to every operation queued behind it.
type openOp struct {
	Due, Issued, Done time.Time
}

func (o openOp) Lateness() time.Duration { return max(o.Issued.Sub(o.Due), 0) }
func (o openOp) Latency() time.Duration  { return o.Done.Sub(o.Due) }

// maxLateness is the generator's worst lateness over ops, in ms.
func maxLateness(ops []openOp) float64 {
	var worst time.Duration
	for _, o := range ops {
		worst = max(worst, o.Lateness())
	}
	return ms(worst)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
