package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ssrq"
)

// workload is one traffic mix against ssrq-server.
// Why each was chosen is recorded in README.md and BENCHMARK.json.
type workload struct {
	name   string
	preset string
	n      int
	shards int
	// e2e drives the real server binary over HTTP.
	e2e func(r *runCtx, w *world) error
}

var workloads = []*workload{
	{
		name: "read-hot", preset: "gowalla", n: 20000,
		e2e: readHot,
	},
	{
		name: "write-churn", preset: "urban", n: 20000,
		e2e: writeChurn,
	},
	{
		name: "durable-sharded", preset: "gowalla", n: 20000, shards: 4,
		e2e: durableSharded,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Tuned rates (requests per second) and sampling.
const (
	readHotRate    = 30.0  // fixed offered query rate
	capacityLimit  = 100.0 // ms: a capacity rung passes when its p90 stays within it
	oracleSample   = 100   // replies compared with BruteForce per check
	setupStarts    = 5     // server starts per run; setup_s is their median
	churnQueryRate = 6.0
	churnMoveRate  = 5.0
	churnEdgeRate  = 3.0
	churnBulkRate  = 5.0
	churnBulkSize  = 32
	durQueryRate   = 6.0
	durMoveRate    = 4.0
	durBulkRate    = 2.0
	durBulkSize    = 16
	durEdgeRate    = 2.0
	durLagRate     = 5.0
	durCkptEvery   = 1000
)

// runCtx is one benchmark run's shared state.
type runCtx struct {
	ctx     context.Context
	seconds float64
	dir     string
	bin     string
	rep     *Report
	// lateMs collects generator lateness over every open-loop phase.
	lateMs []float64
	conns  int
	sent   int
	rates  map[string]float64
}

// setup starts the server setupStarts times with argsFor(i), keeps the last
// one and reports setup_s as the median exec→healthy time.
func (r *runCtx) setup(argsFor func(i int) []string) (*Server, error) {
	var times []float64
	var srv *Server
	for i := 0; i < setupStarts; i++ {
		s, d, err := StartServer(r.bin, argsFor(i), filepath.Join(r.dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		if i < setupStarts-1 {
			s.Kill()
		} else {
			srv = s
		}
	}
	r.rep.add(Metric{Name: "setup_s", Value: Median(times), Unit: "s", N: len(times)})
	return srv, nil
}

// cpuPerRequest reports the server processes' CPU time over a measured
// phase per request it sent.
func (r *runCtx) cpuPerRequest(cpuSeconds float64, requests int) {
	r.rep.add(Metric{Name: "server_cpu_ms_per_req", Value: cpuSeconds * 1000 / float64(max(requests, 1)), Unit: "ms", N: requests})
}

// account adds an open-loop phase's requests to attempted/failed and its
// generator lateness to the run's record.
func (r *runCtx) account(ops []Op, out []Outcome) {
	for i := range ops {
		r.rep.Attempted++
		if !out[i].OK(ops[i].Want) {
			r.rep.fail("%s %s: %v", ops[i].Req.Method, ops[i].Req.Path, errOf(&out[i]))
		}
	}
	r.lateMs = append(r.lateMs, lateness(out)...)
	r.sent += len(ops)
}

func errOf(o *Outcome) error {
	if o.Err != nil {
		return o.Err
	}
	return fmt.Errorf("status %d", o.Status)
}

// verify compares sampled replies with BruteForce on the oracle. A nil
// body is a request that already failed and counted as such.
func (r *runCtx) verify(oracle *ssrq.Engine, specs []qspec, bodies [][]byte, where string) {
	for i, s := range specs {
		if bodies[i] == nil {
			continue
		}
		if err := checkReply(oracle, s, bodies[i]); err != nil {
			r.rep.Attempted++ // the mismatch is counted against the request it judges
			r.rep.fail("oracle mismatch (%s): %v", where, err)
		}
	}
	r.rep.OracleChecked += len(specs)
}

// requery sends each spec once more (closed loop, after a barrier) and
// returns the reply bodies for the oracle; failed requests count as failed.
func (r *runCtx) requery(base string, specs []qspec) [][]byte {
	c := newConn()
	defer c.CloseIdleConnections()
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		st, b, err := get(r.ctx, c, base, s.path())
		r.rep.Attempted++
		if err != nil || st != http.StatusOK {
			r.rep.fail("GET %s after barrier: status %d err %v", s.path(), st, err)
			continue
		}
		bodies[i] = b
	}
	return bodies
}

// sampleSpecs picks up to oracleSample query specs spread over a run.
func sampleSpecs(specs []qspec) []qspec {
	step := max(1, len(specs)/oracleSample)
	var out []qspec
	for i := 0; i < len(specs) && len(out) < oracleSample; i += step {
		out = append(out, specs[i])
	}
	return out
}

// mergeOps merges per-class schedules into one by intended time.
func mergeOps(parts ...[]Op) []Op {
	var ops []Op
	for _, p := range parts {
		ops = append(ops, p...)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// readHot: queries only, on two connections, at one fixed rate and then
// a rate ladder for query_capacity_qps.
func readHot(r *runCtx, w *world) error {
	srv, err := r.setup(func(int) []string { return []string{"-data", w.path} })
	if err != nil {
		return err
	}
	defer srv.Kill()
	r.conns = 2
	r.rates["query"] = readHotRate

	fixed := r.seconds * 0.6
	n := int(fixed * readHotRate)
	specs := make([]qspec, n)
	keepEvery := max(1, n/oracleSample)
	ops := uniformSchedule(n, readHotRate, 0, func(i int) Op {
		specs[i] = w.drawQuery(false)
		o := specs[i].op()
		o.Keep = i%keepEvery == 0
		return o
	})
	cpu0 := srv.CPUSeconds()
	out := RunOpenLoop(r.ctx, srv.Base, ops, r.conns, nil)
	r.cpuPerRequest(srv.CPUSeconds()-cpu0, len(ops))
	r.account(ops, out)
	lat := classLatencies(ops, out, "query")
	r.rep.add(tailMetrics("query", lat)...)

	// Rate ladder: each rung passes when its p90 meets capacityLimit and
	// its last quarter shows no growing backlog.
	rungs := []float64{2, 3, 4, 5, 6}
	rungSecs := r.seconds * 0.4 / float64(len(rungs))
	capacity := 0.0
	for _, mult := range rungs {
		rate := readHotRate * mult
		rops := uniformSchedule(int(rungSecs*rate), rate, 0, func(int) Op { return w.drawQuery(false).op() })
		rout := RunOpenLoop(r.ctx, srv.Base, rops, r.conns, nil)
		r.account(rops, rout)
		rl := classLatencies(rops, rout, "query")
		p90, _ := Percentile(rl, 0.9)
		lastQ := Median(rl[len(rl)*3/4:])
		r.rep.Notes = append(r.rep.Notes, fmt.Sprintf("ladder %.0f req/s: p90 %.2f ms, last-quarter p50 %.2f ms, n=%d", rate, p90, lastQ, len(rl)))
		if p90 > capacityLimit || lastQ > capacityLimit {
			break
		}
		capacity = rate
	}
	r.rep.add(Metric{Name: "query_capacity_qps", Value: capacity, Unit: "req/s", N: len(rungs)})
	r.rep.add(Metric{Name: "server_rss_mb", Value: srv.PeakRSSMB(), Unit: "MB", N: 1})

	oracle, err := newOracle(w.path, nil)
	if err != nil {
		return err
	}
	defer oracle.Close()
	var kept []qspec
	var bodies [][]byte
	for i := range ops {
		if ops[i].Keep && out[i].OK(ops[i].Want) {
			kept, bodies = append(kept, specs[i]), append(bodies, out[i].Body)
		}
	}
	r.verify(oracle, kept, bodies, "live reply")
	return nil
}

// sseEvent is one subscription delta as received.
type sseEvent struct {
	at    time.Time
	added []int32
}

// watchSSE reads the subscription stream until ctx ends, recording every
// delta event. ready is closed once the initial event has arrived.
func watchSSE(ctx context.Context, url string, ready chan<- struct{}) ([]sseEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	var events []sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var d struct {
			Added []struct {
				ID int32 `json:"id"`
			} `json:"added"`
		}
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			return events, fmt.Errorf("bad delta %q: %w", data, err)
		}
		ev := sseEvent{at: time.Now()}
		for _, a := range d.Added {
			ev.added = append(ev.added, a.ID)
		}
		if len(events) == 0 {
			close(ready)
		}
		events = append(events, ev)
	}
	if ctx.Err() != nil {
		return events, nil
	}
	return events, fmt.Errorf("subscription stream ended early: %v", sc.Err())
}

// probePlan is a standing subscription and the users whose teleport onto
// the subscriber must add them to its top-k.
type probePlan struct {
	q      int32
	k      int
	alpha  float64
	at     ssrq.Point
	probes []int32 // alternated; each moves home when the next one probes
	homes  map[int32]ssrq.Point
	avoid  map[int32]bool // q, probes and q's top-k: kept out of other churn
}

// planProbes finds a located subscriber with two probe candidates: users
// outside its top-k whose score after teleporting onto it (α·social, the
// spatial part becomes 0) beats half the current k-th score.
func planProbes(w *world) (*probePlan, error) {
	oracle, err := newOracle(w.path, nil)
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	const k, alpha = 10, 0.3
	for _, q := range w.popular[:min(len(w.popular), 200)] {
		res, err := oracle.Query(ssrq.BruteForce, q, ssrq.Params{K: k, Alpha: alpha})
		if err != nil || len(res.Entries) < k {
			continue
		}
		fk := res.Entries[k-1].F
		plan := &probePlan{q: q, k: k, alpha: alpha, homes: map[int32]ssrq.Point{}, avoid: map[int32]bool{q: true}}
		plan.at, _ = w.ds.Location(q)
		for _, e := range res.Entries {
			plan.avoid[e.ID] = true
		}
		for _, c := range oracle.SocialKNN(q, 64) {
			home, located := w.ds.Location(c.ID)
			if c.ID == q || plan.avoid[c.ID] || !located || alpha*c.P >= fk/2 {
				continue
			}
			plan.probes = append(plan.probes, c.ID)
			plan.homes[c.ID] = home
			plan.avoid[c.ID] = true
			if len(plan.probes) == 2 {
				return plan, nil
			}
		}
	}
	return nil, fmt.Errorf("no subscriber with two probe candidates among the popular users")
}

// userPools splits located users outside avoid into disjoint pools for
// sync moves and async batches, so the order of the two write paths never
// matters for the oracle.
func userPools(w *world, avoid map[int32]bool) (syncPool, asyncPool []int32) {
	for i, u := range w.located {
		if avoid[u] {
			continue
		}
		if i%2 == 0 {
			syncPool = append(syncPool, u)
		} else {
			asyncPool = append(asyncPool, u)
		}
	}
	return syncPool, asyncPool
}

// churnSchedule is write-churn's op mix over secs seconds. Every async
// batch leads with a probe move (W[0]) that teleports one of the plan's
// probe users onto the subscriber, and moves the previous probe home.
func churnSchedule(w *world, plan *probePlan, secs float64) []Op {
	syncPool, asyncPool := userPools(w, plan.avoid)
	var allUsers []int32
	for u := 0; u < w.ds.NumUsers(); u++ {
		if !plan.avoid[int32(u)] {
			allUsers = append(allUsers, int32(u))
		}
	}
	churn := newEdgeChurn(w, allUsers)
	queries := uniformSchedule(int(secs*churnQueryRate), churnQueryRate, 0, func(i int) Op {
		return w.drawQuery(i%2 == 1).op()
	})
	moves := uniformSchedule(int(secs*churnMoveRate), churnMoveRate, 7*time.Millisecond, func(int) Op {
		p := w.randomPoint()
		return moveOp("write", write{kind: 'm', u: syncPool[w.rng.Intn(len(syncPool))], x: p.X, y: p.Y})
	})
	edges := uniformSchedule(int(secs*churnEdgeRate), churnEdgeRate, 13*time.Millisecond, func(int) Op {
		return edgeOp("write", churn.next())
	})
	bulks := uniformSchedule(int(secs*churnBulkRate), churnBulkRate, 29*time.Millisecond, func(i int) Op {
		p := plan.probes[i%2]
		ws := []write{{kind: 'm', u: p, x: plan.at.X, y: plan.at.Y}}
		if i > 0 {
			prev := plan.probes[(i-1)%2]
			h := plan.homes[prev]
			ws = append(ws, write{kind: 'm', u: prev, x: h.X, y: h.Y})
		}
		for len(ws) < churnBulkSize {
			pt := w.randomPoint()
			ws = append(ws, write{kind: 'm', u: asyncPool[w.rng.Intn(len(asyncPool))], x: pt.X, y: pt.Y})
		}
		return movesOp("bulk", ws, false)
	})
	return mergeOps(queries, moves, edges, bulks)
}

// writeChurn: one request connection with a fixed open-loop mix of async
// batches (carrying probe moves), sync moves, flushed edge ops and
// queries, plus one SSE subscriber on the second connection.
func writeChurn(r *runCtx, w *world) error {
	plan, err := planProbes(w)
	if err != nil {
		return err
	}
	ops := churnSchedule(w, plan, r.seconds)
	var specs []qspec
	for _, o := range ops {
		if o.Q != nil {
			specs = append(specs, *o.Q)
		}
	}
	r.rates = map[string]float64{"query": churnQueryRate, "move": churnMoveRate, "edges": churnEdgeRate, "moves_batch": churnBulkRate}

	srv, err := r.setup(func(int) []string { return []string{"-data", w.path} })
	if err != nil {
		return err
	}
	defer srv.Kill()
	r.conns = 2

	sctx, stopSSE := context.WithCancel(r.ctx)
	defer stopSSE()
	ready := make(chan struct{})
	var events []sseEvent
	var sseErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		events, sseErr = watchSSE(sctx, fmt.Sprintf("%s/subscribe?user=%d&k=%d&alpha=%g", srv.Base, plan.q, plan.k, plan.alpha), ready)
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		stopSSE()
		wg.Wait()
		return fmt.Errorf("no initial subscription event: %v", sseErr)
	}

	var log []write
	cpu0 := srv.CPUSeconds()
	out := RunOpenLoop(r.ctx, srv.Base, ops, 1, func(i int, o *Outcome) {
		if o.OK(ops[i].Want) {
			log = append(log, ops[i].W...)
		}
	})
	r.cpuPerRequest(srv.CPUSeconds()-cpu0, len(ops))
	// Give the last probes' deltas time to arrive before closing the stream.
	time.Sleep(500 * time.Millisecond)
	stopSSE()
	wg.Wait()
	r.account(ops, out)
	if sseErr != nil {
		r.rep.fail("subscription: %v", sseErr)
	}

	r.rep.add(tailMetrics("query", classLatencies(ops, out, "query"))...)
	r.rep.add(tailMetrics("write", classLatencies(ops, out, "write"))...)
	r.rep.add(tailMetrics("bulk", classLatencies(ops, out, "bulk"))...)

	// Delta latency: probe batch sent → first SSE event adding the probe
	// user, before that user's next probe is sent.
	var delta []float64
	missed := 0
	var sentAt []time.Time
	var probeOf []int32
	for i := range ops {
		if ops[i].Class == "bulk" {
			sentAt = append(sentAt, out[i].Sent)
			probeOf = append(probeOf, ops[i].W[0].u)
		}
	}
	for b, p := range probeOf {
		from := sentAt[b]
		until := time.Now()
		if b+2 < len(sentAt) {
			until = sentAt[b+2]
		}
		found := false
		for _, ev := range events {
			if ev.at.Before(from) || !ev.at.Before(until) {
				continue
			}
			if slices.Contains(ev.added, p) {
				delta = append(delta, ms(ev.at.Sub(from)))
				found = true
				break
			}
		}
		if !found {
			missed++
		}
	}
	r.rep.add(tailMetrics("delta", delta)...)
	r.rep.add(Metric{Name: "delta_missed", Value: float64(missed), Unit: "count", N: len(probeOf)})
	if missed > len(probeOf)/10 {
		r.rep.fail("%d of %d probe moves produced no subscription delta", missed, len(probeOf))
	}

	// Barrier, then compare fresh replies with BruteForce on the replay.
	u := ops[0].W
	for _, o := range ops {
		if o.Req.Path == "/move" {
			u = o.W
			break
		}
	}
	p := ssrq.Point{X: u[0].x, Y: u[0].y}
	for _, wr := range log {
		if wr.kind == 'm' && wr.u == u[0].u {
			p = ssrq.Point{X: wr.x, Y: wr.y}
		}
	}
	barrier := write{kind: 'm', u: u[0].u, x: p.X, y: p.Y}
	if err := r.barrier(srv.Base, barrier); err != nil {
		return err
	}
	log = append(log, barrier)
	r.rep.add(Metric{Name: "server_rss_mb", Value: srv.PeakRSSMB(), Unit: "MB", N: 1})
	oracle, err := newOracle(w.path, log)
	if err != nil {
		return err
	}
	defer oracle.Close()
	sample := sampleSpecs(specs)
	r.verify(oracle, sample, r.requery(srv.Base, sample), "after barrier")
	return nil
}

// near compares a served coordinate with the one written: the server
// stores coordinates normalized, so the round trip may move the last bits.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// barrier sends one flushed /moves request: every earlier write is applied
// and published when it returns.
func (r *runCtx) barrier(base string, wr write) error {
	c := newConn()
	defer c.CloseIdleConnections()
	o := movesOp("barrier", []write{wr}, true)
	st, b, err := do(r.ctx, c, base, o.Req)
	r.rep.Attempted++
	if err != nil || st != o.Want {
		r.rep.fail("flush barrier: status %d err %v %s", st, err, b)
		return fmt.Errorf("flush barrier failed")
	}
	return nil
}

// lagProbe is a leader-acked sync move the follower poller waits for.
type lagProbe struct {
	id    int32
	x, y  float64
	acked time.Time
}

// pollFollower waits, probe by probe, until the follower serves each
// probe's location, and returns the lags in ms (+Inf on timeout) and, per
// timed-out probe, what the follower reported.
func pollFollower(ctx context.Context, base string, probes <-chan lagProbe) (lags []float64, timeouts []string) {
	c := newConn()
	defer c.CloseIdleConnections()
	for p := range probes {
		deadline := p.acked.Add(5 * time.Second)
		lag := math.Inf(1)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			st, b, err := get(ctx, c, base, fmt.Sprintf("/user/%d", p.id))
			if err == nil && st == http.StatusOK {
				var u struct {
					X *float64 `json:"x"`
					Y *float64 `json:"y"`
				}
				if json.Unmarshal(b, &u) == nil && u.X != nil && near(*u.X, p.x) && near(*u.Y, p.y) {
					lag = ms(time.Since(p.acked))
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
		if math.IsInf(lag, 1) {
			_, b, _ := get(ctx, c, base, fmt.Sprintf("/user/%d", p.id))
			_, st, _ := get(ctx, c, base, "/stats")
			var rs struct {
				Applied *uint64 `json:"replication_applied_seq"`
				Leader  *uint64 `json:"replication_leader_seq"`
			}
			_ = json.Unmarshal(st, &rs) // a diagnostic only; nil fields print as such
			timeouts = append(timeouts, fmt.Sprintf("follower never served move of user %d to (%v, %v) within 5s: serves %s, replication applied %v leader %v",
				p.id, p.x, p.y, bytes.TrimSpace(b), deref(rs.Applied), deref(rs.Leader)))
		}
		lags = append(lags, lag)
	}
	return lags, timeouts
}

func deref(p *uint64) any {
	if p == nil {
		return nil
	}
	return *p
}

// durableSchedule is durable-sharded's op mix over secs seconds, plus the
// async batch that is in flight when the leader is killed. Probe ops are
// sync moves whose visibility on the follower is timed.
func durableSchedule(w *world, secs float64) (ops []Op, crash []write) {
	syncPool, asyncPool := userPools(w, map[int32]bool{})
	lagPool := syncPool[:len(syncPool)/4]
	syncPool = syncPool[len(syncPool)/4:]
	var allUsers []int32
	for u := 0; u < w.ds.NumUsers(); u++ {
		allUsers = append(allUsers, int32(u))
	}
	churn := newEdgeChurn(w, allUsers)
	queries := uniformSchedule(int(secs*durQueryRate), durQueryRate, 0, func(int) Op {
		return w.drawQuery(false).op()
	})
	moves := uniformSchedule(int(secs*durMoveRate), durMoveRate, 11*time.Millisecond, func(int) Op {
		p := w.randomPoint()
		return moveOp("write", write{kind: 'm', u: syncPool[w.rng.Intn(len(syncPool))], x: p.X, y: p.Y})
	})
	lagOps := uniformSchedule(int(secs*durLagRate), durLagRate, 23*time.Millisecond, func(i int) Op {
		p := w.randomPoint()
		o := moveOp("write", write{kind: 'm', u: lagPool[i%len(lagPool)], x: p.X, y: p.Y})
		o.Probe = true
		return o
	})
	asyncMoves := func(n int) []write {
		ws := make([]write, n)
		for i := range ws {
			pt := w.randomPoint()
			ws[i] = write{kind: 'm', u: asyncPool[w.rng.Intn(len(asyncPool))], x: pt.X, y: pt.Y}
		}
		return ws
	}
	bulks := uniformSchedule(int(secs*durBulkRate), durBulkRate, 37*time.Millisecond, func(int) Op {
		return movesOp("bulk", asyncMoves(durBulkSize), false)
	})
	edges := uniformSchedule(int(secs*durEdgeRate), durEdgeRate, 53*time.Millisecond, func(int) Op {
		return edgeOp("write", churn.next())
	})
	return mergeOps(queries, moves, lagOps, bulks, edges), asyncMoves(64)
}

// durableSharded: a WAL leader with 4 shards and an HTTP follower under
// mixed load on one connection, follower lag probes on the second, then a
// SIGKILL during an async batch, recovery over the same WAL and
// re-verification.
func durableSharded(r *runCtx, w *world) error {
	ops, crash := durableSchedule(w, r.seconds*0.8)
	var specs []qspec
	for _, o := range ops {
		if o.Q != nil {
			specs = append(specs, *o.Q)
		}
	}
	r.rates = map[string]float64{"query": durQueryRate, "move": durMoveRate, "lag_probe": durLagRate, "moves_batch": durBulkRate, "edges": durEdgeRate}

	walDir := filepath.Join(r.dir, "wal")
	leaderArgs := func(i int) []string {
		// -wal-keep is the documented setting for a leader with followers:
		// without it a background checkpoint prunes records a follower has
		// not pulled yet, and the follower stops with its tail compacted
		// away (seen here within 30 s at -checkpoint-every 1000).
		return []string{"-data", w.path, "-shards", "4", "-wal-dir", fmt.Sprintf("%s%d", walDir, i), "-fsync", "batch",
			"-checkpoint-every", fmt.Sprint(durCkptEvery), "-wal-keep"}
	}
	leader, err := r.setup(leaderArgs)
	if err != nil {
		return err
	}
	defer func() { // the leader restarted after the crash replaces the first
		if leader != nil {
			leader.Kill()
		}
	}()
	follower, _, err := StartServer(r.bin, []string{"-data", w.path, "-shards", "4", "-follower-of", leader.Base},
		filepath.Join(r.dir, "follower.log"))
	if err != nil {
		return err
	}
	defer follower.Kill()
	r.conns = 2

	probes := make(chan lagProbe, len(ops))
	var lags []float64
	var timeouts []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lags, timeouts = pollFollower(r.ctx, follower.Base, probes)
	}()
	var log []write
	cpu0 := leader.CPUSeconds() + follower.CPUSeconds()
	out := RunOpenLoop(r.ctx, leader.Base, ops, 1, func(i int, o *Outcome) {
		if !o.OK(ops[i].Want) {
			return
		}
		ws := ops[i].W
		log = append(log, ws...)
		if ops[i].Probe {
			probes <- lagProbe{id: ws[0].u, x: ws[0].x, y: ws[0].y, acked: time.Now()}
		}
	})
	r.cpuPerRequest(leader.CPUSeconds()+follower.CPUSeconds()-cpu0, len(ops))
	close(probes)
	wg.Wait()
	r.account(ops, out)
	r.rep.add(tailMetrics("query", classLatencies(ops, out, "query"))...)
	r.rep.add(tailMetrics("write", classLatencies(ops, out, "write"))...)
	r.rep.add(tailMetrics("bulk", classLatencies(ops, out, "bulk"))...)
	r.rep.add(tailMetrics("follower_lag", lags)...)
	for _, t := range timeouts {
		r.rep.fail("%s", t)
	}
	r.rep.add(Metric{Name: "server_rss_mb", Value: leader.PeakRSSMB() + follower.PeakRSSMB(), Unit: "MB", N: 2})

	// Pre-crash check: barrier, then fresh replies against the replay.
	barrier := write{kind: 'm', u: w.located[0], x: w.minX, y: w.minY}
	if err := r.barrier(leader.Base, barrier); err != nil {
		return err
	}
	log = append(log, barrier)
	oracle, err := newOracle(w.path, log)
	if err != nil {
		return err
	}
	sample := sampleSpecs(specs)
	half := sample[:len(sample)/2]
	r.verify(oracle, half, r.requery(leader.Base, half), "leader before crash")
	oracle.Close()

	// SIGKILL while an async batch is in flight, then recover over the
	// same WAL and re-verify.
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		c := newConn()
		defer c.CloseIdleConnections()
		_, _, _ = do(r.ctx, c, leader.Base, movesOp("crash", crash, false).Req) // errok: the kill decides the outcome, resolved below
	}()
	time.Sleep(3 * time.Millisecond)
	leader.Kill()
	<-inflight
	last := map[int32]ssrq.Point{} // acked location per user (else home)
	for _, wr := range crash {
		last[wr.u], _ = w.ds.Location(wr.u)
	}
	for _, wr := range log {
		if wr.kind == 'm' {
			last[wr.u] = ssrq.Point{X: wr.x, Y: wr.y}
		}
	}
	leader, rec, err := StartServer(r.bin, leaderArgs(setupStarts-1), filepath.Join(r.dir, "recovered.log"))
	if err != nil {
		r.rep.fail("restart over the WAL: %v", err)
		return err
	}
	r.rep.add(Metric{Name: "recover_s", Value: rec.Seconds(), Unit: "s", N: 1})

	// Each move of the killed batch must have been applied or not; the
	// recovered location decides which, per user, in batch order.
	c := newConn()
	defer c.CloseIdleConnections()
	finalOf := map[int32]int{}
	for i, wr := range crash {
		finalOf[wr.u] = i
	}
	for i, wr := range crash {
		if finalOf[wr.u] != i {
			continue
		}
		st, b, err := get(r.ctx, c, leader.Base, fmt.Sprintf("/user/%d", wr.u))
		r.rep.Attempted++
		var u struct {
			X, Y *float64
		}
		if err != nil || st != http.StatusOK || json.Unmarshal(b, &u) != nil || u.X == nil {
			r.rep.fail("GET /user/%d after recovery: status %d err %v", wr.u, st, err)
			continue
		}
		got := ssrq.Point{X: *u.X, Y: *u.Y}
		applied := -1
		for j := i; j >= 0; j-- {
			if crash[j].u == wr.u && near(crash[j].x, got.X) && near(crash[j].y, got.Y) {
				applied = j
				break
			}
		}
		switch {
		case applied >= 0:
			log = append(log, crash[applied])
		case !near(got.X, last[wr.u].X) || !near(got.Y, last[wr.u].Y):
			r.rep.fail("recovered location of user %d (%v) is neither its acked nor its in-flight location", wr.u, got)
		}
	}
	oracle, err = newOracle(w.path, log)
	if err != nil {
		return err
	}
	defer oracle.Close()
	rest := sample[len(sample)/2:]
	r.verify(oracle, rest, r.requery(leader.Base, rest), "after crash recovery")
	return nil
}
