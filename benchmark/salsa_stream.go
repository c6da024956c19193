package main

import (
	"time"

	"fastppr/internal/salsa"
	"fastppr/internal/serve"
	"fastppr/internal/socialstore"
)

// salsa-stream: the SALSA maintainer alone. One closed-loop client applies
// events one at a time.
const (
	salsaRound        = 128 // arrivals per grow/shrink fold
	salsaCompactEvery = 1024
	salsaNominalRate  = 80 // events/s; see prNominalRate
)

var salsaStream = workload{
	name: "salsa-stream",
	why:  "Arrivals land on preferentially attached hubs, so the sided repair kernel and the walkstore hub buckets do the work; no persist, no queries.",
	run:  runSalsaStream,
}

type salsaState struct {
	in  *paperInput
	soc *socialstore.Store
	mt  *salsa.Maintainer
	srv *serve.Server // who-to-follow only
}

// setupSalsa builds the starting graph and bootstraps a default SALSA
// maintainer over it, behind a serving tier when withServer is set (the
// tier must exist before the first mutation so its cache keys see it).
func setupSalsa(env *runEnv, res *result, i int, arrivals int, withServer bool) *salsaState {
	t0 := time.Now()
	root := env.tr.start("setup", -1, int64(i))
	in := makeInput(env.seed, arrivals)
	soc := socialstore.New(in.graph)
	mt := salsa.New(soc, salsaConfig())
	st := &salsaState{in: in, soc: soc, mt: mt}
	if withServer {
		st.srv = serve.New(mt, serve.Config{})
	}
	sp := env.tr.start("Bootstrap", root, int64(i))
	tb := time.Now()
	steps := mt.Bootstrap()
	bootS := time.Since(tb).Seconds()
	env.tr.finish(sp)
	env.tr.finish(root)
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	res.bootstrapped(in, steps, bootS)
	return st
}

func setupSalsaTimes(env *runEnv, res *result, arrivals int, withServer bool) *salsaState {
	var st *salsaState
	for i := 0; i < env.setups; i++ {
		st = nil // let the previous set-up be collected before the next
		st = setupSalsa(env, res, i, arrivals, withServer)
	}
	return st
}

func runSalsaStream(env *runEnv) (*result, error) {
	res := newResult()
	st := setupSalsaTimes(env, res, arrivalsFor(env.events(salsaNominalRate), salsaRound), false)
	mt, walks, tr := st.mt, st.mt.Store(), env.tr
	feed := newEventFeed(st.in, env.seed, salsaRound)
	compact := &compactor{w: walks}
	res.heapMB = heapInuseMB()
	soc0, epoch0, c0 := st.soc.Metrics(), walks.Epoch(), mt.Counters()

	var busyS float64
	total := env.events(salsaNominalRate)
	start := time.Now()
	for i := 0; res.events < total; i++ {
		evs := feed.next(1)
		if len(evs) == 0 {
			break
		}
		ev, req := evs[0], int64(i)
		root := tr.start("event", -1, req)
		misses0 := mt.Counters().DelMisses
		name := "ApplyEdge"
		if ev.Del {
			name = "ApplyDeletion"
		}
		sp := tr.start(name, root, req)
		t := time.Now()
		if ev.Del {
			mt.ApplyDeletion(ev.Edge)
		} else {
			mt.ApplyEdge(ev.Edge)
		}
		el := time.Since(t)
		tr.finish(sp)
		busyS += el.Seconds()
		res.fresh = append(res.fresh, ms(el))
		res.fails.addBatch(1, el, mt.Counters().DelMisses-misses0)
		if (i+1)%salsaCompactEvery == 0 {
			compact.maybeCompact(tr, root, req)
		}
		tr.finish(root)
		res.events++
	}
	res.wallS = time.Since(start).Seconds()
	res.storeCalls = res.storeDelta(soc0, st.soc.Metrics(), res.events)
	res.heapAfterStream()

	c := mt.Counters()
	res.storeGates(walks, st.soc.Graph(), env.tr != nil)
	res.counterGates(c.SlowNoops, c.Arrivals-c0.Arrivals, c.Deletions-c0.Deletions, feed)
	res.salsaLayer(busyS, c0, c)
	res.walkstoreLayer(walks, epoch0, compact.garbagePeak, compact.seconds, compact.compactions)
	return res, nil
}

// salsaLayer records the SALSA maintainer's update path between two counter
// snapshots. An arrival runs two repair phases, so the skip rate is over
// 2*arrivals.
func (r *result) salsaLayer(busyS float64, c0, c salsa.Counters) {
	r.maintainerLayer("salsa", busyS, skipRate(c.FastSkips-c0.FastSkips, 2*(c.Arrivals-c0.Arrivals)),
		c.SlowPaths-c0.SlowPaths, c.Rerouted-c0.Rerouted, c.Revived-c0.Revived,
		c.DelRerouted-c0.DelRerouted, c.DelTruncated-c0.DelTruncated)
}
