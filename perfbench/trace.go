package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ssrq"
	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/fof"
	"ssrq/internal/follower"
	"ssrq/internal/graph"
	"ssrq/internal/httpapi"
	"ssrq/internal/oplog"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
	"ssrq/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one op share op.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	parent     int           // index of the causing span, -1 for a root
	op         int
}

// tracer keeps spans in memory; they are aggregated when the pass ends.
// With on false it only runs the calls, which is the untraced baseline
// for trace.overhead_ratio.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

// time runs fn and records it as a root span of op.
func (t *tracer) time(name string, op int, fn func()) (int, time.Duration) {
	s := time.Now()
	fn()
	e := time.Now()
	if !t.on {
		return -1, e.Sub(s)
	}
	t.spans = append(t.spans, span{name: name, start: s.Sub(t.epoch), end: e.Sub(t.epoch), parent: -1, op: op})
	return len(t.spans) - 1, e.Sub(s)
}

// attribute records a paired call that took d as a child of parent. The
// parent did the same work internally at a point no exported hook shows,
// so the child is placed at the start of the parent's interval and
// clamped to it.
func (t *tracer) attribute(name string, parent, op int, d time.Duration) int {
	if !t.on || parent < 0 {
		return -1
	}
	p := t.spans[parent]
	end := min(p.start+d, p.end)
	t.spans = append(t.spans, span{name: name, start: p.start, end: end, parent: parent, op: op})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB time.Duration
		for j, v := range iv {
			if j == 0 || v[0] > curB {
				covered += curB - curA
				curA, curB = v[0], v[1]
			} else if v[1] > curB {
				curB = v[1]
			}
		}
		covered += curB - curA
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfSumError is, over every op tree rooted at a span named root, the
// largest |Σ self times − root duration| / root duration.
func selfSumError(spans []span, root string) (float64, int) {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	sums := map[int]time.Duration{}
	for i, s := range spans {
		rootOf[i] = i
		if s.parent >= 0 {
			rootOf[i] = rootOf[s.parent] // parents precede children
		}
		sums[rootOf[i]] += self[i]
	}
	worst, n := 0.0, 0
	for r, sum := range sums {
		if spans[r].name != root {
			continue
		}
		d := spans[r].end - spans[r].start
		if d > 0 {
			worst = math.Max(worst, math.Abs(float64(sum-d))/float64(d))
			n++
		}
	}
	return worst, n
}

// selfTimeTolerance is the stated bound on selfSumError for /query trees.
const selfTimeTolerance = 0.01

// layers holds every instance the traced pass drives. Writes go into all
// of them, so all see the same world.
type layers struct {
	t      *tracer
	w      *workload
	srv    http.Handler // httpapi over R
	R      *ssrq.Engine // serves srv
	P      *ssrq.Engine // paired root-facade calls
	C      *core.Engine
	SH     *shard.Engine
	D      *ssrq.Engine // durable, fsync batch
	dOpts  *ssrq.Options
	WB, WO *wal.Log // standalone logs, fsync batch and off
	F      *follower.Follower
	G      *spatial.Grid // standalone grid for Move+Publish
	norms  dataset.Norms
	fofSc  fof.Scratch
	astar  *graph.AStarPool
	buf    []byte
	qvec   []float64
	bounds []float64

	samples map[string][]float64
	non2xx  map[int]int
	writes  int // write ops replayed while traced
	records int // journal records appended to WB while traced
	lagMax  uint64
	pendMax int64
}

func (l *layers) sample(name string, v float64) {
	if l.t.on {
		l.samples[name] = append(l.samples[name], v)
	}
}

func (l *layers) serve(name string, op int, req *http.Request) (int, *httptest.ResponseRecorder) {
	rec := httptest.NewRecorder()
	id, _ := l.t.time(name, op, func() { l.srv.ServeHTTP(rec, req) })
	if l.t.on && rec.Code/100 != 2 {
		l.non2xx[rec.Code]++
	}
	return id, rec
}

func (l *layers) normPt(wr write) spatial.Point {
	return spatial.Point{X: wr.x / l.norms.Spatial, Y: wr.y / l.norms.Spatial}
}

func (l *layers) coreUpdate(wr write) core.Update {
	switch wr.kind {
	case 'm':
		return core.Update{ID: wr.u, To: l.normPt(wr)}
	case 'a':
		return core.Update{Kind: core.OpEdgeUpsert, U: wr.u, V: wr.v, W: wr.weight / l.norms.Social}
	default:
		return core.Update{Kind: core.OpEdgeRemove, U: wr.u, V: wr.v}
	}
}

// query replays one /query op and pairs it with the lower layers' calls.
func (l *layers) query(i int, op Op) error {
	s := *op.Q
	prm := s.params()
	root, rec := l.serve("httpapi.ServeHTTP /query", i, httptest.NewRequest(http.MethodGet, op.Req.Path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced %s: status %d", op.Req.Path, rec.Code)
	}
	l.sample("httpapi.query_resp_bytes", float64(rec.Body.Len()))
	var err error
	dRoot := timed(func() { _, err = l.P.Query(ssrq.AIS, s.q, prm) })
	if err != nil {
		return err
	}
	mid := l.t.attribute("ssrq.Engine.Query", root, i, dRoot)
	var res *core.Result
	dCore := timed(func() { res, err = l.C.Query(core.AIS, s.q, prm) })
	if err != nil {
		return err
	}
	f0 := l.SH.FanoutStats()
	dShard := timed(func() { _, err = l.SH.Query(core.AIS, s.q, prm) })
	if err != nil {
		return err
	}
	f1 := l.SH.FanoutStats()
	// The engine behind the facade is the workload's: shards or monolith.
	if l.w.shards > 1 {
		l.t.attribute("shard.Engine.Query", mid, i, dShard)
	} else {
		l.t.attribute("core.Engine.Query", mid, i, dCore)
	}
	l.sample("ssrq.query_us", us(dRoot))
	l.sample("core.query_us", us(dCore))
	l.sample("shard.query_us", us(dShard))
	l.sample("shard.shards_queried_per_q", float64(f1.ShardsQueried-f0.ShardsQueried))
	l.sample("shard.shards_pruned_per_q", float64(f1.ShardsPruned-f0.ShardsPruned))
	l.sample("shard.shards_empty_per_q", float64(f1.ShardsEmpty-f0.ShardsEmpty))

	st := res.Stats
	l.sample("core.social_pops_per_q", float64(st.SocialPops))
	l.sample("core.spatial_pops_per_q", float64(st.SpatialPops))
	l.sample("core.index_cell_pops_per_q", float64(st.IndexCellPops))
	l.sample("core.index_user_pops_per_q", float64(st.IndexUserPops))
	l.sample("core.reinserts_per_q", float64(st.Reinserts))
	l.sample("core.graphdist_calls_per_q", float64(st.GraphDistCalls))
	l.sample("core.fof_tightened_per_q", float64(st.FoFTightened))
	l.sample("core.label_cell_prunes_per_q", float64(st.LabelCellPrunes))
	l.sample("core.label_skips_per_q", float64(st.LabelSkips))
	if len(res.Entries) > 0 {
		l.sample("core.pops_per_result", float64(st.Pops())/float64(len(res.Entries)))
	}

	// The paper's four methods on the same stream (every fourth query,
	// SFA and SPA being the slow baselines).
	if i%4 == 0 {
		l.sample("core.query_us.AIS", us(dCore))
		for _, a := range []core.Algorithm{core.TSA, core.SFA, core.SPA} {
			_, d := l.t.time("core.Engine.Query."+a.String(), i, func() { _, err = l.C.Query(a, s.q, prm) })
			if err != nil {
				return err
			}
			l.sample("core.query_us."+a.String(), us(d))
		}
	}

	// Fan-out merge of the result split four ways.
	lists := make([][]core.Entry, 4)
	for j, e := range res.Entries {
		lists[j%4] = append(lists[j%4], e)
	}
	_, d := l.t.time("shard.MergeTopK", i, func() { shard.MergeTopK(prm.K, lists...) })
	l.sample("shard.merge_us", us(d))
	l.layerProbes(i, s.q, res)
	return nil
}

// timed runs a paired call that is recorded, if at all, by attribute.
func timed(fn func()) time.Duration {
	s := time.Now()
	fn()
	return time.Since(s)
}

// layerProbes times the primitives one query leans on, over the current
// snapshot of the core engine.
func (l *layers) layerProbes(i int, q int32, res *core.Result) {
	sn := l.C.Snapshot()
	lm := sn.Landmarks()
	l.qvec = lm.AppendVertexVector(l.qvec[:0], q)
	level := sn.Grid().Layout().LeafLevel()
	_, d := l.t.time("aggindex.SocialLowerBoundsInto", i, func() {
		l.bounds = sn.SocialLowerBoundsInto(level, l.qvec, l.bounds)
	})
	l.sample("aggindex.bound_batch_ns", float64(d.Nanoseconds()))

	it := sn.Grid().NewNN(sn.Grid().Point(q))
	nexts := 0
	_, d = l.t.time("spatial.NNIterator.Next", i, func() {
		for ; nexts < 64; nexts++ {
			if _, _, ok := it.Next(); !ok {
				break
			}
		}
	})
	if nexts > 0 {
		l.sample("spatial.nn_next_ns", float64(d.Nanoseconds())/float64(nexts))
	}

	if n := len(res.Entries); n > 0 {
		target := res.Entries[n-1].ID
		pops := 0
		_, d = l.t.time("graph.AStarSearch.Next", i, func() {
			s := l.astar.NewSearch(sn.SocialGraph(), q, lm.HeuristicTo(target))
			for pops < 4096 {
				v, _, ok := s.Next()
				if !ok || v == target {
					break
				}
				pops++
			}
			pops = max(s.Pops(), 1)
		})
		l.sample("graph.astar_pop_ns", float64(d.Nanoseconds())/float64(pops))

		_, d = l.t.time("landmark.Set.LowerBound", i, func() {
			for _, e := range res.Entries {
				lm.LowerBound(q, e.ID)
			}
		})
		l.sample("landmark.lower_bound_ns", float64(d.Nanoseconds())/float64(n))
	}

	_, d = l.t.time("fof.Scratch.Arm", i, func() {
		l.fofSc.Arm(l.C.FoFIndex(), sn.SocialGraph(), q, 0)
		l.fofSc.Release()
	})
	l.sample("fof.arm_us", us(d))
}

// journal appends records to both standalone logs one record per Append
// (as the sharded durable path journals async moves), encodes and decodes
// the first through oplog, and lets the follower pull.
func (l *layers) journal(i int, ups []core.Update) error {
	recs := oplog.FromOps(ups)
	for _, r := range recs {
		one := []oplog.Record{r}
		var err error
		_, d := l.t.time("wal.Log.Append", i, func() { _, _, err = l.WB.Append(one) })
		if err != nil {
			return err
		}
		l.sample("wal.append_us", us(d))
		_, d = l.t.time("wal.Log.Append(fsync off)", i, func() { _, _, err = l.WO.Append(one) })
		if err != nil {
			return err
		}
		l.sample("wal.append_nosync_us", us(d))
	}
	if l.t.on {
		l.records += len(recs)
	}
	_, d := l.t.time("oplog.Record.Append", i, func() { l.buf = recs[0].Append(l.buf[:0]) })
	l.sample("oplog.encode_ns", float64(d.Nanoseconds()))
	l.sample("oplog.bytes_per_rec", float64(len(l.buf)))
	var err error
	_, d = l.t.time("oplog.Decode", i, func() { _, _, err = oplog.Decode(l.buf) })
	if err != nil {
		return err
	}
	l.sample("oplog.decode_ns", float64(d.Nanoseconds()))

	if lag := l.D.WALLastSeq() - l.F.Stats().AppliedSeq; l.t.on && lag > l.lagMax {
		l.lagMax = lag
	}
	var n int
	_, d = l.t.time("follower.Follower.Pull", i, func() { n, err = l.F.Pull() })
	if err != nil {
		return err
	}
	l.sample("follower.pull_us", us(d))
	l.sample("follower.records_per_pull", float64(n))

	_, d = l.t.time("ssrq.Engine.SyncSubscriptions", i, func() { l.P.SyncSubscriptions() })
	l.sample("sub.sync_us", us(d))
	return nil
}

// move replays a sync /move.
func (l *layers) move(i int, op Op) error {
	wr := op.W[0]
	root, rec := l.serve("httpapi.ServeHTTP /move", i, httptest.NewRequest(http.MethodPost, "/move", strings.NewReader(string(op.Req.Body))))
	if rec.Code != op.Want {
		return fmt.Errorf("traced /move: status %d", rec.Code)
	}
	var err error
	pt := ssrq.Point{X: wr.x, Y: wr.y}
	d := timed(func() { err = l.P.MoveUser(wr.u, pt) })
	if err != nil {
		return err
	}
	mid := l.t.attribute("ssrq.Engine.MoveUser", root, i, d)
	l.sample("ssrq.move_us", us(d))
	up := []core.Update{l.coreUpdate(wr)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dC := timed(func() { err = l.C.ApplyUpdates(up) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	dS := timed(func() { err = l.SH.ApplyUpdates(up) })
	if err != nil {
		return err
	}
	if l.w.shards > 1 {
		l.t.attribute("shard.Engine.ApplyUpdates", mid, i, dS)
	} else {
		l.t.attribute("core.Engine.ApplyUpdates", mid, i, dC)
	}
	l.sample("aggindex.publish_us", us(dC))
	l.sample("aggindex.publish_alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))

	np := l.normPt(wr)
	_, d = l.t.time("spatial.Grid.Move+Publish", i, func() {
		l.G.Move(wr.u, np)
		l.G.Publish()
	})
	l.sample("spatial.move_publish_us", us(d))
	_, d = l.t.time("ssrq.Engine.MoveUser(durable)", i, func() { err = l.D.MoveUser(wr.u, pt) })
	if err != nil {
		return err
	}
	l.sample("ssrq.durable_move_us", us(d))
	return l.journal(i, up)
}

// bulk replays an async /moves batch.
func (l *layers) bulk(i int, op Op) error {
	root, rec := l.serve("httpapi.ServeHTTP /moves", i, httptest.NewRequest(http.MethodPost, "/moves", strings.NewReader(string(op.Req.Body))))
	if rec.Code != op.Want {
		return fmt.Errorf("traced /moves: status %d", rec.Code)
	}
	var err error
	dEnq := timed(func() {
		for _, wr := range op.W {
			if err = l.P.MoveUserAsync(wr.u, ssrq.Point{X: wr.x, Y: wr.y}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	l.t.attribute("ssrq.Engine.MoveUserAsync", root, i, dEnq)
	_, dFlush := l.t.time("ssrq.Engine.Flush", i, func() { l.P.Flush() })
	l.sample("ssrq.async_visible_us", us(dEnq+dFlush))

	ups := make([]core.Update, len(op.W))
	for j, wr := range op.W {
		ups[j] = l.coreUpdate(wr)
	}
	for _, u := range ups {
		if err := l.C.MoveUserAsync(u.ID, u.To); err != nil {
			return err
		}
		if err := l.SH.MoveUserAsync(u.ID, u.To); err != nil {
			return err
		}
	}
	if p := l.C.UpdateStats().PendingUpdates; l.t.on && p > l.pendMax {
		l.pendMax = p
	}
	l.C.Flush()
	l.SH.Flush()
	_, d := l.t.time("ssrq.Engine.MoveUserAsync(durable)", i, func() {
		for _, wr := range op.W {
			if err = l.D.MoveUserAsync(wr.u, ssrq.Point{X: wr.x, Y: wr.y}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	l.sample("ssrq.durable_async_move_us", us(d)/float64(len(op.W)))
	l.D.Flush()
	return l.journal(i, ups)
}

// edge replays a one-edge flushed /edges request.
func (l *layers) edge(i int, op Op) error {
	wr := op.W[0]
	root, rec := l.serve("httpapi.ServeHTTP /edges", i, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(string(op.Req.Body))))
	if rec.Code != op.Want {
		return fmt.Errorf("traced /edges: status %d", rec.Code)
	}
	var err error
	d := timed(func() { err = wr.apply(l.P) })
	if err != nil {
		return err
	}
	l.t.attribute("ssrq.Engine.AddFriend|RemoveFriend", root, i, d)
	l.sample("ssrq.edge_flush_us", us(d))
	up := []core.Update{l.coreUpdate(wr)}
	s0 := l.C.SocialStats()
	_, d = l.t.time("core.Engine.ApplyUpdates(edge)", i, func() { err = l.C.ApplyUpdates(up) })
	if err != nil {
		return err
	}
	s1 := l.C.SocialStats()
	l.sample("aggindex.edge_apply_us", us(d))
	l.sample("landmark.repaired_per_edge", float64(s1.RepairedVertices-s0.RepairedVertices))
	if err := l.SH.ApplyUpdates(up); err != nil {
		return err
	}
	if err := wr.apply(l.D); err != nil {
		return err
	}
	return l.journal(i, up)
}

// tracedPass replays the workload's schedule in-process, traced and then
// untraced over the same prefix, and adds the per-layer metrics to rep.
func tracedPass(w *workload, seed int64, secs float64, dir string, rep *Report) error {
	// The schedule comes from a fresh world with the same seed, so it is
	// the one the untraced run generated.
	fresh, err := newWorld(w.preset, w.n, seed, filepath.Join(dir, "traced.gob"))
	if err != nil {
		return err
	}
	ops, subUser, err := tracedSchedule(w, fresh, secs)
	if err != nil {
		return err
	}

	var loads []float64
	var ids *dataset.Dataset
	for j := 0; j < 3; j++ {
		s := time.Now()
		if ids, err = dataset.LoadFile(fresh.path); err != nil {
			return err
		}
		loads = append(loads, time.Since(s).Seconds())
	}
	rep.add(Metric{Name: "dataset.load_s", Value: Median(loads), Unit: "s", N: len(loads)})

	opts := &ssrq.Options{Shards: max(w.shards, 1)}
	var builds []float64
	newRoot := func() (*ssrq.Engine, error) {
		s := time.Now()
		e, err := ssrq.NewEngine(fresh.ds, opts)
		builds = append(builds, time.Since(s).Seconds())
		return e, err
	}
	l := &layers{t: &tracer{}, w: w, norms: fresh.ds.Norms(), samples: map[string][]float64{}, non2xx: map[int]int{}}
	if l.R, err = newRoot(); err != nil {
		return err
	}
	defer l.R.Close()
	if l.P, err = newRoot(); err != nil {
		return err
	}
	defer l.P.Close()
	rep.add(Metric{Name: "ssrq.build_s", Value: Median(builds), Unit: "s", N: len(builds)})
	l.srv = httpapi.New(l.R)
	if l.C, err = core.NewEngine(ids, core.Options{}); err != nil {
		return err
	}
	defer l.C.Close()
	if l.SH, err = shard.New(ids, 4, core.Options{}); err != nil {
		return err
	}
	defer l.SH.Close()
	l.G, err = spatial.NewGrid(l.C.Grid().Layout(), ids.Pts, ids.Located) // copies them
	if err != nil {
		return err
	}
	l.astar = graph.NewAStarPool(ids.G.NumVertices())
	l.dOpts = &ssrq.Options{Shards: max(w.shards, 1), Durability: &ssrq.DurabilityOptions{Dir: filepath.Join(dir, "traced-wal"), Fsync: "batch"}}
	if l.D, _, err = ssrq.OpenOrRecover(fresh.ds, l.dOpts); err != nil {
		return err
	}
	defer func() { l.D.Close() }() // replaced by the recovered engine below
	if l.WB, _, err = wal.Open(filepath.Join(dir, "wal-batch"), wal.Options{Fsync: wal.FsyncBatch}); err != nil {
		return err
	}
	defer l.WB.Close()
	if l.WO, _, err = wal.Open(filepath.Join(dir, "wal-off"), wal.Options{Fsync: wal.FsyncOff}); err != nil {
		return err
	}
	defer l.WO.Close()
	if l.F, err = follower.New(fresh.ds, follower.EngineSource{Leader: l.D}, &follower.Options{Engine: &ssrq.Options{Shards: max(w.shards, 1)}, Manual: true}); err != nil {
		return err
	}
	defer l.F.Close()
	sub, err := l.P.Subscribe(subUser, 10, 0.3)
	if err != nil {
		return err
	}
	defer sub.Close()

	replay := func(from, to int, deadline time.Time) (int, error) {
		for i := from; i < to; i++ {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return i, nil
			}
			op := ops[i]
			var err error
			switch {
			case op.Q != nil:
				err = l.query(i, op)
			case op.Req.Path == "/move":
				err = l.move(i, op)
			case op.Req.Path == "/moves":
				err = l.bulk(i, op)
			default:
				err = l.edge(i, op)
			}
			if err != nil {
				return i, fmt.Errorf("traced op %d (%s %s): %w", i, op.Req.Method, op.Req.Path, err)
			}
			if l.t.on && op.W != nil {
				l.writes++
			}
		}
		return to, nil
	}
	warm := min(8, len(ops))
	if _, err := replay(0, warm, time.Time{}); err != nil {
		return err
	}
	c0 := l.C.UpdateStats()
	l.t.on, l.t.epoch = true, time.Now()
	end, err := replay(warm, len(ops), time.Now().Add(time.Duration(secs*0.4*float64(time.Second))))
	if err != nil {
		return err
	}
	traced := time.Since(l.t.epoch)
	c1 := l.C.UpdateStats()
	l.t.on = false
	s := time.Now()
	if _, err := replay(warm, end, time.Time{}); err != nil {
		return err
	}
	untraced := time.Since(s)
	rep.Notes = append(rep.Notes, fmt.Sprintf("traced pass: ops %d..%d of %d, %d spans, %v traced vs %v untraced", warm, end, len(ops), len(l.t.spans), traced.Round(time.Millisecond), untraced.Round(time.Millisecond)))

	// Recovery replays the durable engine's whole journal; then a
	// checkpoint of the recovered state.
	var rec *ssrq.RecoveryInfo
	l.D.Close()
	if l.D, rec, err = ssrq.OpenOrRecover(fresh.ds, l.dOpts); err != nil {
		return err
	}
	replayed := rec.CheckpointOps + rec.ReplayedOps
	rep.add(Metric{Name: "ssrq.recover_replay_ops_s", Value: float64(replayed) / math.Max(rec.Elapsed.Seconds(), 1e-9), Unit: "1/s", N: replayed})
	s = time.Now()
	if err := l.D.Checkpoint(); err != nil {
		return err
	}
	rep.add(Metric{Name: "ssrq.checkpoint_ms", Value: ms(time.Since(s)), Unit: "ms", N: 1})
	rep.add(Metric{Name: "ssrq.checkpoints", Value: float64(l.D.DurabilityStats().Checkpoints), Unit: "count"})

	wst := l.WB.Stats()
	rep.add(Metric{Name: "wal.bytes_per_op", Value: float64(wst.SizeBytes) / float64(max(l.writes, 1)), Unit: "B", N: l.writes})
	rep.add(Metric{Name: "wal.records_per_op", Value: float64(l.records) / float64(max(l.writes, 1)), Unit: "count", N: l.writes})
	diff := oplog.FromOps(l.C.ExportDiff())
	s = time.Now()
	if err := l.WB.WriteCheckpoint(l.WB.LastSeq(), diff); err != nil {
		return err
	}
	rep.add(Metric{Name: "wal.checkpoint_ms", Value: ms(time.Since(s)), Unit: "ms", N: 1})
	rep.add(Metric{Name: "wal.checkpoint_bytes", Value: float64(dirBytes(filepath.Join(dir, "wal-batch"), "checkpoint")), Unit: "B", N: len(diff)})
	rep.add(Metric{Name: "wal.segments", Value: float64(l.WB.Stats().Segments), Unit: "count"})

	// Per-call samples: times as medians, counts and sizes as means.
	for name, xs := range l.samples {
		v := Median(xs)
		if u := unitOf(name); u == "count" || u == "B" {
			v = mean(xs)
		}
		rep.add(Metric{Name: name, Value: v, Unit: unitOf(name), N: len(xs)})
	}
	spans := l.t.spans
	self := selfTimes(spans)
	var qself, mself []float64
	for i, sp := range spans {
		switch sp.name {
		case "httpapi.ServeHTTP /query":
			qself = append(qself, us(self[i]))
		case "httpapi.ServeHTTP /moves":
			mself = append(mself, us(self[i]))
		}
	}
	rep.add(Metric{Name: "httpapi.query_self_us", Value: Median(qself), Unit: "us", N: len(qself)})
	rep.add(Metric{Name: "httpapi.moves_self_us", Value: Median(mself), Unit: "us", N: len(mself)})
	non2xx := 0
	for code, n := range l.non2xx {
		non2xx += n
		rep.Notes = append(rep.Notes, fmt.Sprintf("traced non-2xx status %d: %d", code, n))
	}
	rep.add(Metric{Name: "httpapi.non2xx", Value: float64(non2xx), Unit: "count"})
	selfErr, trees := selfSumError(spans, "httpapi.ServeHTTP /query")
	rep.add(Metric{Name: "trace.query_selfsum_err", Value: selfErr, Unit: "ratio", N: trees})
	if selfErr > selfTimeTolerance {
		rep.fail("query span trees: self times sum to within %.4f of the httpapi span, beyond the %.2f tolerance", selfErr, selfTimeTolerance)
	}
	rep.add(Metric{Name: "trace.overhead_ratio", Value: traced.Seconds() / untraced.Seconds(), Unit: "ratio", N: end - warm})

	wall := traced.Seconds()
	applied := c1.AppliedUpdates - c0.AppliedUpdates
	rep.add(
		Metric{Name: "core.coalesced_ratio", Value: float64(c1.CoalescedUpdates-c0.CoalescedUpdates) / float64(max(applied, 1)), Unit: "ratio", N: int(applied)},
		Metric{Name: "core.batches_per_s", Value: float64(c1.AppliedBatches-c0.AppliedBatches) / wall, Unit: "1/s"},
		Metric{Name: "core.pending_max", Value: float64(l.pendMax), Unit: "count"},
		Metric{Name: "aggindex.epochs_per_s", Value: float64(c1.Epoch-c0.Epoch) / wall, Unit: "1/s"},
	)
	soc := l.C.SocialStats()
	rep.add(
		Metric{Name: "graph.patched_vertices", Value: float64(soc.PatchedVertices), Unit: "count"},
		Metric{Name: "graph.compactions", Value: float64(soc.Compactions), Unit: "count"},
		Metric{Name: "landmark.repairs", Value: float64(soc.LandmarkRepairs), Unit: "count"},
		Metric{Name: "landmark.disabled", Value: float64(soc.LandmarkDisables), Unit: "count"},
		Metric{Name: "landmark.rebuilds", Value: float64(soc.LandmarkRebuilds), Unit: "count"},
	)
	fs := l.SH.FanoutStats()
	visits := fs.ShardsQueried + fs.ShardsPruned + fs.ShardsEmpty
	rep.add(
		Metric{Name: "shard.pruned_ratio", Value: float64(fs.ShardsPruned) / float64(max(visits, 1)), Unit: "ratio", N: int(visits)},
		Metric{Name: "shard.imbalance", Value: l.SH.Imbalance(), Unit: "ratio"},
		Metric{Name: "shard.rebalances", Value: float64(l.SH.RebalanceStats().Rebalances), Unit: "count"},
	)
	ss := l.P.SubscriptionStats()
	rep.add(
		Metric{Name: "sub.rounds", Value: float64(ss.Rounds), Unit: "count"},
		Metric{Name: "sub.evals", Value: float64(ss.Evals), Unit: "count"},
		Metric{Name: "sub.skips", Value: float64(ss.Skips), Unit: "count"},
		Metric{Name: "sub.notified", Value: float64(ss.Notified), Unit: "count"},
		Metric{Name: "sub.skip_ratio", Value: float64(ss.Skips) / float64(max(ss.Skips+ss.Evals, 1)), Unit: "ratio"},
		Metric{Name: "follower.lag_records_max", Value: float64(l.lagMax), Unit: "count"},
	)
	return nil
}

// tracedSchedule is the op schedule the traced pass replays, and the user
// its standing subscription watches. read-hot sends no writes, so its
// replay interleaves a seeded write probe (sync moves, async batches and
// edge ops over the same dataset) to time the write-side layers there too;
// the untraced run never sends those.
func tracedSchedule(w *workload, wd *world, secs float64) ([]Op, int32, error) {
	switch w.name {
	case "write-churn":
		plan, err := planProbes(wd)
		if err != nil {
			return nil, 0, err
		}
		return churnSchedule(wd, plan, secs), plan.q, nil
	case "durable-sharded":
		ops, _ := durableSchedule(wd, secs)
		return ops, wd.popular[0], nil
	}
	queries := uniformSchedule(int(secs*readHotRate), readHotRate, 0, func(int) Op { return wd.drawQuery(false).op() })
	probe, _ := durableSchedule(wd, 4)
	var ops []Op
	for i, q := range queries {
		ops = append(ops, q)
		for _, p := range probe[min(i, len(probe)):min(i+1, len(probe))] {
			if p.W != nil {
				ops = append(ops, p)
			}
		}
	}
	return ops, wd.popular[0], nil
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us."):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_bytes") || strings.HasSuffix(name, "_per_rec"):
		return "B"
	default:
		return "count"
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// dirBytes sums the sizes of the files in dir whose names contain part.
func dirBytes(dir, part string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !strings.Contains(e.Name(), part) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}
