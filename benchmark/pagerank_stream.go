package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastppr/internal/exact"
	"fastppr/internal/pagerank"
	"fastppr/internal/persist"
	"fastppr/internal/socialstore"
)

// pagerank-stream: global PageRank under random-order arrivals and
// deletions, journaled. One closed-loop client applies batches of events.
const (
	prBatch           = 256
	prRound           = 1 << 15 // arrivals per grow/shrink fold
	prCheckpointEvery = 512     // batches
	prQueryEvery      = 64      // batches between MaybeCompact + TopK(100)
	prTopK            = 100
	// prNominalRate sizes the stream: a run applies prNominalRate * seconds
	// events, about --seconds of work at this rate, however fast the
	// program really is, so every commit does the same work.
	prNominalRate = 40000
	// prL1Bound gates L1(ApproxAll, exact PageRank) on the final graph. The
	// Monte Carlo error of R=8 walks per node on this graph is about 0.027,
	// before and after the stream; a repair bug moves it well past 0.04.
	prL1Bound = 0.04
)

var pagerankStream = workload{
	name: "pagerank-stream",
	why:  "Global PageRank under random-order arrivals and deletions, journaled by persist: the paper's headline workload, and the only one that runs pagerank, topk and persist.",
	run:  runPagerankStream,
}

type prState struct {
	in  *paperInput
	soc *socialstore.Store
	mt  *pagerank.Maintainer
	pm  *persist.Manager
	dir string
}

// discard drops a set-up that was only timed; its journal is deleted, so
// closing it can fail without consequence.
func (s *prState) discard() {
	_ = s.pm.Close()
	_ = os.RemoveAll(s.dir)
}

func setupPagerank(env *runEnv, res *result, i int) (*prState, error) {
	t0 := time.Now()
	root := env.tr.start("setup", -1, int64(i))
	in := makeInput(env.seed, arrivalsFor(env.events(prNominalRate), prRound))
	dir := filepath.Join(env.dir, fmt.Sprintf("pagerank-%d", i))
	pm, walks, _, err := persist.Open(persistConfig(dir))
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	soc := socialstore.New(in.graph)
	mt := pagerank.NewWithStore(soc, pagerankConfig(), walks)
	sp := env.tr.start("Bootstrap", root, int64(i))
	tb := time.Now()
	steps := mt.Bootstrap()
	bootS := time.Since(tb).Seconds()
	env.tr.finish(sp)
	sp = env.tr.start("Checkpoint", root, int64(i))
	err = pm.Checkpoint()
	env.tr.finish(sp)
	if err != nil {
		pm.Close()
		return nil, fmt.Errorf("initial checkpoint: %w", err)
	}
	env.tr.finish(root)
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	res.bootstrapped(in, steps, bootS)
	return &prState{in: in, soc: soc, mt: mt, pm: pm, dir: dir}, nil
}

func runPagerankStream(env *runEnv) (*result, error) {
	res := newResult()
	var st *prState
	for i := 0; i < env.setups; i++ {
		if st != nil {
			st.discard()
		}
		var err error
		if st, err = setupPagerank(env, res, i); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(st.dir)
	mt, pm, walks, tr := st.mt, st.pm, st.mt.Store(), env.tr
	g := st.soc.Graph()
	feed := newEventFeed(st.in, env.seed, prRound)
	compact := &compactor{w: walks}
	res.heapMB = heapInuseMB()
	soc0, epoch0, c0 := st.soc.Metrics(), walks.Epoch(), mt.Counters()

	var busyS, commitS, topkS float64
	var checkpointS []float64
	var walRecords, walBytes int64
	var topkCalls int
	lastCommitted := int64(-1)
	total := env.events(prNominalRate)
	start := time.Now()
	for b := 0; res.events < total; b++ {
		evs := feed.next(min(prBatch, int(total-res.events)))
		if len(evs) == 0 {
			break
		}
		req := int64(b)
		root := tr.start("batch", -1, req)
		misses0 := mt.Counters().DelMisses
		sp := tr.start("ApplyEvents", root, req)
		t := time.Now()
		mt.ApplyEvents(evs)
		el := time.Since(t)
		tr.finish(sp)
		busyS += el.Seconds()
		res.fresh = append(res.fresh, ms(el))
		res.fails.addBatch(len(evs), el, mt.Counters().DelMisses-misses0)
		for _, ev := range evs {
			if ev.Del {
				sp = tr.start("LogRemoveEdge", root, req)
				err := pm.LogRemoveEdge(ev.Edge.From, ev.Edge.To)
				tr.finish(sp)
				if err != nil {
					return nil, fmt.Errorf("journal deletion: %w", err)
				}
			}
		}
		sp = tr.start("Commit", root, req)
		t = time.Now()
		err := pm.Commit(req, mt.UpdateRNGState())
		commitS += time.Since(t).Seconds()
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("commit batch %d: %w", b, err)
		}
		lastCommitted = req
		if (b+1)%prCheckpointEvery == 0 {
			ws := pm.Stats()
			walRecords, walBytes = walRecords+ws.WALRecords, walBytes+ws.WALBytes
			sp = tr.start("Checkpoint", root, req)
			t = time.Now()
			err = pm.Checkpoint()
			checkpointS = append(checkpointS, time.Since(t).Seconds())
			tr.finish(sp)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		if (b+1)%prQueryEvery == 0 {
			compact.maybeCompact(tr, root, req)
			sp = tr.start("TopK", root, req)
			t = time.Now()
			items := mt.TopK(prTopK)
			topkS += time.Since(t).Seconds()
			topkCalls++
			tr.finish(sp)
			if len(items) != prTopK {
				res.gatef("TopK size", false, "TopK(%d) returned %d items", prTopK, len(items))
			}
		}
		tr.finish(root)
		res.events += int64(len(evs))
	}
	res.wallS = time.Since(start).Seconds()
	res.storeCalls = res.storeDelta(soc0, st.soc.Metrics(), res.events)
	res.heapAfterStream()
	ws := pm.Stats()
	walRecords, walBytes = walRecords+ws.WALRecords, walBytes+ws.WALBytes
	liveSegs, liveEpoch := walks.NumSegments(), walks.Epoch()
	if err := pm.Close(); err != nil {
		return nil, fmt.Errorf("close journal: %w", err)
	}

	c := mt.Counters()
	res.storeGates(walks, g, true)
	res.counterGates(c.SlowNoops, c.Arrivals-c0.Arrivals, c.Deletions-c0.Deletions, feed)
	res.timed("L1(ApproxAll, exact.PageRank)", func() error {
		l1 := exact.L1(mt.ApproxAll(), exact.PageRank(g, walkEps, 1e-9))
		res.layer["pagerank.l1_to_exact"] = l1
		if l1 >= prL1Bound {
			return fmt.Errorf("L1 = %.4f, bound %.2f", l1, prL1Bound)
		}
		return nil
	})

	root := tr.start("recovery", -1, 0)
	sp := tr.start("Open", root, 0)
	t := time.Now()
	pm2, rec, info, err := persist.Open(persistConfig(st.dir))
	res.recoveryS = time.Since(t).Seconds()
	tr.finish(sp)
	tr.finish(root)
	if err != nil {
		return nil, fmt.Errorf("recover journal: %w", err)
	}
	res.timed("recovered walkstore.Validate", rec.Validate)
	res.gatef("recovered segments == live", rec.NumSegments() == liveSegs, "recovered %d segments, live %d", rec.NumSegments(), liveSegs)
	res.gatef("recovered epoch == live", rec.Epoch() == liveEpoch, "recovered epoch %d, live %d", rec.Epoch(), liveEpoch)
	res.gatef("RecoveryInfo.Cursor == last commit", info.Cursor == lastCommitted, "cursor %d, last commit %d", info.Cursor, lastCommitted)
	res.layer["persist.snapshot_mb"] = float64(pm2.SnapshotBytes()) / 1e6
	res.layer["persist.replayed"] = float64(info.Replayed)
	if err := pm2.Close(); err != nil {
		return nil, fmt.Errorf("close recovered journal: %w", err)
	}

	res.maintainerLayer("pagerank", busyS, skipRate(c.FastSkips-c0.FastSkips, c.Arrivals-c0.Arrivals),
		c.SlowPaths-c0.SlowPaths, c.Rerouted-c0.Rerouted, c.Revived-c0.Revived,
		c.DelRerouted-c0.DelRerouted, c.DelTruncated-c0.DelTruncated)
	res.layer["pagerank.steps_in_per_event"] = ratio(float64(c.StepsIn-c0.StepsIn), float64(res.events))
	res.layer["pagerank.steps_out_per_event"] = ratio(float64(c.StepsOut-c0.StepsOut), float64(res.events))
	res.layer["topk.ms_per_call"] = ratio(topkS*1e3, float64(topkCalls))
	res.walkstoreLayer(walks, epoch0, compact.garbagePeak, compact.seconds, compact.compactions)
	res.layer["persist.commit_s"] = commitS
	res.layer["persist.checkpoint_s"] = median(checkpointS)
	res.layer["persist.checkpoints"] = float64(len(checkpointS))
	res.layer["persist.wal_records_per_event"] = ratio(float64(walRecords), float64(res.events))
	res.layer["persist.wal_bytes_per_event"] = ratio(float64(walBytes), float64(res.events))
	return res, nil
}

func skipRate(skips, phases int64) float64 { return ratio(float64(skips), float64(phases)) }
