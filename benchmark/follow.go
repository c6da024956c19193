package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/salsa"
)

// who-to-follow: personalized SALSA top-k served while the graph changes.
// Open loop: events and queries are due on fixed schedules whatever the
// system does, each timed from its due time.
const (
	followEventRate = 20.0  // events/s
	followQueryRate = 100.0 // queries/s
	followRound     = 64    // arrivals per grow/shrink fold
	followK         = 20
	followZipf      = 1.0
	// followInFlight caps concurrent queries; a stall past it makes the
	// generator late, which loadgen.query_lateness_max_ms shows.
	followInFlight = 64
	// followHitChecks is how many cache hits are replayed against a fresh
	// recompute after the run.
	followHitChecks = 32
)

var whoToFollow = workload{
	name: "who-to-follow",
	why:  "Reads beside writes on one walk store: the serve cache, the query splice and the SALSA maintainer share the cores, with events at 20/s and Zipf queries at 100/s.",
	run:  runWhoToFollow,
}

// served is what the benchmark keeps of one served query.
type served struct {
	hit, coalesced bool
	calls          int64   // Result.StoreCalls
	bound          float64 // Theorem8Bound, computes only
	stitched, bare int64
	drift          int64
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func runWhoToFollow(env *runEnv) (*result, error) {
	res := newResult()
	st := setupSalsaTimes(env, res, arrivalsFor(env.events(followEventRate), followRound), true)
	mt, srv, walks, tr := st.mt, st.srv, st.mt.Store(), env.tr

	nEv, nQ := int(env.events(followEventRate)), int(env.events(followQueryRate))
	feed := newEventFeed(st.in, env.seed, followRound)
	var events []graph.Event
	for len(events) < nEv {
		evs := feed.next(nEv - len(events))
		if len(evs) == 0 {
			break
		}
		events = append(events, evs...)
	}
	// Who is popular belongs to the fixed world (see graphSeed); the seed
	// draws the query sequence.
	byRank := rand.New(rand.NewPCG(graphSeed, 0x5a1f)).Perm(paperNodes) // popularity rank -> node
	rng := rand.New(rand.NewPCG(env.seed, 0x5a1f))
	zipf := gen.NewZipf(paperNodes, followZipf)
	sources := make([]graph.NodeID, nQ)
	for j := range sources {
		sources[j] = graph.NodeID(byRank[zipf.Sample(rng)])
	}

	res.heapMB = heapInuseMB()
	soc0, epoch0, c0, s0 := st.soc.Metrics(), walks.Epoch(), mt.Counters(), srv.Stats()
	evOps := make([]openOp, len(events))
	qOps := make([]openOp, nQ)
	out := make([]served, nQ)
	var busyS float64
	var fails tally // written by the event goroutine only until wg.Wait
	start := time.Now().Add(20 * time.Millisecond)
	evDue, qDue := dueTimes(start, followEventRate, len(events)), dueTimes(start, followQueryRate, nQ)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, ev := range events {
			sleepUntil(evDue[i])
			req := int64(i)
			root := tr.start("event", -1, req)
			evOps[i].Due, evOps[i].Issued = evDue[i], time.Now()
			misses0 := mt.Counters().DelMisses
			name := "ApplyEdge"
			if ev.Del {
				name = "ApplyDeletion"
			}
			sp := tr.start(name, root, req)
			if ev.Del {
				srv.ApplyDeletion(ev.Edge)
			} else {
				srv.ApplyEdge(ev.Edge)
			}
			evOps[i].Done = time.Now()
			tr.finish(sp)
			tr.finish(root)
			busyS += evOps[i].Done.Sub(evOps[i].Issued).Seconds()
			fails.addBatch(1, evOps[i].Latency(), mt.Counters().DelMisses-misses0)
		}
	}()
	go func() {
		defer wg.Done()
		sem := make(chan struct{}, followInFlight)
		var qwg sync.WaitGroup
		for j := range qDue {
			sleepUntil(qDue[j])
			sem <- struct{}{}
			qOps[j].Due, qOps[j].Issued = qDue[j], time.Now()
			qwg.Add(1)
			go func(j int) {
				defer qwg.Done()
				req := int64(j)
				root := tr.start("query", -1, req)
				sp := tr.start("PersonalizedTopK", root, req)
				_, r := srv.PersonalizedTopK(sources[j], followK)
				qOps[j].Done = time.Now()
				tr.finish(sp)
				tr.finish(root)
				s := served{hit: r.Hit, coalesced: r.Coalesced, calls: r.StoreCalls}
				if !r.Hit && !r.Coalesced {
					qs := r.Query.Stats()
					s.bound, s.stitched, s.bare, s.drift = qs.Theorem8Bound, qs.StitchedSegments, qs.BareSteps, qs.EndEpoch-qs.StartEpoch
				}
				out[j] = s
				<-sem
			}(j)
		}
		qwg.Wait()
	}()
	wg.Wait()

	var end time.Time
	for _, o := range append(evOps, qOps...) {
		if o.Done.After(end) {
			end = o.Done
		}
	}
	res.wallS = end.Sub(start).Seconds()
	res.events = int64(len(events))
	res.fails = fails
	for _, o := range evOps {
		res.fresh = append(res.fresh, ms(o.Latency()))
	}
	var computeCalls, computes int64
	var hitMS, missMS []float64
	var stitched, bare, drift int64
	var callsSum, boundSum float64
	var overBound int64 // computes whose store calls exceeded their Theorem 8 allowance
	var worst float64   // highest calls/bound
	for j, o := range qOps {
		res.query = append(res.query, ms(o.Latency()))
		res.fails.addQuery(o.Latency())
		s := out[j]
		res.queryCalls += s.calls
		service := ms(o.Done.Sub(o.Issued))
		switch {
		case s.hit:
			hitMS = append(hitMS, service)
		case !s.coalesced:
			computes++
			computeCalls += s.calls + 1 // the query's reads plus its result fetch
			missMS = append(missMS, service)
			stitched, bare, drift = stitched+s.stitched, bare+s.bare, drift+s.drift
			callsSum, boundSum = callsSum+float64(s.calls), boundSum+s.bound
			if float64(s.calls) > s.bound+theorem8Slack(s.bound) {
				overBound++
			}
			worst = max(worst, ratio(float64(s.calls), s.bound))
		}
	}
	res.storeCalls = res.storeDelta(soc0, st.soc.Metrics(), res.events) - computeCalls
	res.heapAfterStream()
	s1 := srv.Stats()

	c := mt.Counters()
	res.storeGates(walks, st.soc.Graph(), env.tr != nil)
	res.counterGates(c.SlowNoops, c.Arrivals-c0.Arrivals, c.Deletions-c0.Deletions, feed)
	res.gatef("query store calls <= Theorem8Bound + 6 sd", overBound == 0, "%d queries exceeded their Theorem 8 allowance", overBound)
	res.gate("cache hits equal a PersonalizedStream recompute", checkHits(st, byRank))

	res.salsaLayer(busyS, c0, c)
	res.walkstoreLayer(walks, epoch0, 0, 0, 0)
	res.layer["salsa.query_miss_ms"] = median(missMS)
	res.layer["salsa.stitched_per_query"] = ratio(float64(stitched), float64(computes))
	res.layer["salsa.bare_steps_per_query"] = ratio(float64(bare), float64(computes))
	res.layer["salsa.theorem8_ratio"] = ratio(callsSum, boundSum)
	res.layer["salsa.theorem8_worst_ratio"] = worst
	res.layer["salsa.epoch_drift_per_query"] = ratio(float64(drift), float64(computes))
	res.layer["serve.hits"] = float64(s1.Hits - s0.Hits)
	res.layer["serve.misses"] = float64(s1.Misses - s0.Misses)
	res.layer["serve.coalesced"] = float64(s1.Coalesced - s0.Coalesced)
	res.layer["serve.raced"] = float64(s1.Raced - s0.Raced)
	res.layer["serve.invalidated"] = float64(s1.Invalidated - s0.Invalidated)
	res.layer["serve.evicted"] = float64(s1.Evicted - s0.Evicted)
	res.layer["serve.hit_rate"] = ratio(res.layer["serve.hits"], res.layer["serve.hits"]+res.layer["serve.misses"])
	res.layer["serve.fill_ratio"] = ratio(res.layer["serve.misses"]-res.layer["serve.raced"], res.layer["serve.misses"])
	res.layer["serve.hit_ms"] = median(hitMS)
	res.layer["loadgen.query_lateness_max_ms"] = maxLateness(qOps)
	res.layer["loadgen.event_lateness_max_ms"] = maxLateness(evOps)
	return res, nil
}

// theorem8Slack is six standard deviations of the total length of the bare
// walks a Theorem 8 bound counts. The bound is on a query's expected store
// calls: a query whose walks find no stored segment to splice sits right at
// it and exceeds it about half the time, so a per-query check allows for the
// spread of a sum of independent walks, each 2*Geometric(eps) steps long with
// variance 4(1-eps)/eps^2.
func theorem8Slack(bound float64) float64 {
	bare := bound / (2 * (1 - walkEps) / walkEps)
	return 6 * math.Sqrt(bare*4*(1-walkEps)/(walkEps*walkEps))
}

// checkHits replays cache hits on the now quiet store: for the most popular
// sources, a second lookup must hit, and the hit must be bitwise what
// PersonalizedStream recomputes on the hit's recorded stream.
func checkHits(st *salsaState, byRank []int) error {
	for rank := 0; rank < followHitChecks; rank++ {
		src := graph.NodeID(byRank[rank])
		st.srv.Personalized(src)
		r := st.srv.Personalized(src)
		if !r.Hit {
			return fmt.Errorf("source %d: repeated lookup on a quiet store missed the cache", src)
		}
		if !sameServed(r.Query, st.mt.PersonalizedStream(src, r.Stream)) {
			return fmt.Errorf("source %d: cache hit differs from its recompute on stream %d", src, r.Stream)
		}
	}
	return nil
}

// sameServed reports whether a served query and a fresh recompute on the
// same stream are bitwise identical: the full authority distribution plus the
// step and call accounting.
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
