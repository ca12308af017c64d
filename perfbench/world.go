package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"ssrq"
	"ssrq/internal/dataset"
	"ssrq/internal/graph"
)

// world is the generated dataset plus the views of it that schedules draw
// from. Everything in it follows from the workload seed.
type world struct {
	ds                     *ssrq.Dataset
	g                      *graph.Graph // the construction social graph, normalized weights
	path                   string       // the dataset file the server loads with -data
	located                []int32      // users located at construction
	minX, minY, maxX, maxY float64
	labels                 []int // label indices some user carries
	rng                    *rand.Rand
	popular                []int32 // located users in Zipf popularity order
	zipf                   *rand.Zipf
}

// datasetSeed fixes each workload's dataset: the preset synthesized at
// this seed. The workload seed drives everything sent to the server (query
// users and parameters, write targets, probes), so a run's figures do not
// also carry the dataset-to-dataset spread of query cost.
const datasetSeed = 1

// newWorld synthesizes the preset at size n, saves it to path for the
// server, and seeds the traffic drawn from it.
func newWorld(preset string, n int, seed int64, path string) (*world, error) {
	ds, err := ssrq.Synthesize(preset, n, datasetSeed)
	if err != nil {
		return nil, err
	}
	if err := ds.Save(path); err != nil {
		return nil, err
	}
	ids, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	w := &world{ds: ds, g: ids.G, path: path, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		minX: math.Inf(1), minY: math.Inf(1), maxX: math.Inf(-1), maxY: math.Inf(-1)}
	var seen uint64
	for id := 0; id < ds.NumUsers(); id++ {
		seen |= ds.Labels(ssrq.UserID(id))
		p, ok := ds.Location(ssrq.UserID(id))
		if !ok {
			continue
		}
		w.located = append(w.located, int32(id))
		w.minX, w.maxX = math.Min(w.minX, p.X), math.Max(w.maxX, p.X)
		w.minY, w.maxY = math.Min(w.minY, p.Y), math.Max(w.maxY, p.Y)
	}
	for i := 0; i < 64; i++ {
		if seen&(1<<uint(i)) != 0 {
			w.labels = append(w.labels, i)
		}
	}
	// Popularity is part of the dataset, so it is fixed too; the workload
	// seed only draws from it.
	w.popular = append([]int32(nil), w.located...)
	rand.New(rand.NewSource(datasetSeed)).Shuffle(len(w.popular), func(i, j int) {
		w.popular[i], w.popular[j] = w.popular[j], w.popular[i]
	})
	// P(rank r) ∝ (50+r)^-1.1: a quarter of the queries go to the 100
	// most popular users, and no single user takes more than about 0.5%.
	w.zipf = rand.NewZipf(w.rng, 1.1, 50, uint64(len(w.popular)-1))
	return w, nil
}

// randomPoint draws a raw location inside the located users' bounding box.
func (w *world) randomPoint() ssrq.Point {
	return ssrq.Point{
		X: w.minX + w.rng.Float64()*(w.maxX-w.minX),
		Y: w.minY + w.rng.Float64()*(w.maxY-w.minY),
	}
}

// qspec is one query's parameters.
type qspec struct {
	q      int32
	k      int
	alpha  float64
	labels []int
}

var (
	queryKs     = []int{5, 10, 20}
	queryAlphas = []float64{0.1, 0.3, 0.5, 0.7}
)

// drawQuery draws a query from a Zipf-popular located user, with
// labels= one or two present label indices when labeled is set.
func (w *world) drawQuery(labeled bool) qspec {
	s := qspec{
		q:     w.popular[w.zipf.Uint64()],
		k:     queryKs[w.rng.Intn(len(queryKs))],
		alpha: queryAlphas[w.rng.Intn(len(queryAlphas))],
	}
	if labeled && len(w.labels) > 0 {
		for n := 1 + w.rng.Intn(2); n > 0; n-- {
			s.labels = append(s.labels, w.labels[w.rng.Intn(len(w.labels))])
		}
	}
	return s
}

func (s qspec) path() string {
	p := fmt.Sprintf("/query?q=%d&k=%d&alpha=%g", s.q, s.k, s.alpha)
	if len(s.labels) > 0 {
		parts := make([]string, len(s.labels))
		for i, l := range s.labels {
			parts[i] = strconv.Itoa(l)
		}
		p += "&labels=" + strings.Join(parts, ",")
	}
	return p
}

func (s qspec) params() ssrq.Params {
	mask, _ := ssrq.LabelMask(s.labels...) // indices come from the dataset, so in range
	return ssrq.Params{K: s.k, Alpha: s.alpha, Filter: mask}
}

func (s qspec) op() Op {
	return Op{Class: "query", Req: Request{Method: http.MethodGet, Path: s.path()}, Want: http.StatusOK, Q: &s}
}

// write is one acknowledged mutation, kept in the benchmark's own log and
// replayed into the oracle engine.
type write struct {
	kind   byte // 'm' move, 'a' edge upsert, 'r' edge removal
	u, v   int32
	x, y   float64
	weight float64
}

func (wr write) apply(e *ssrq.Engine) error {
	switch wr.kind {
	case 'm':
		return e.MoveUser(wr.u, ssrq.Point{X: wr.x, Y: wr.y})
	case 'a':
		return e.AddFriend(wr.u, wr.v, wr.weight)
	default:
		return e.RemoveFriend(wr.u, wr.v)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers are marshaled
	}
	return b
}

type moveJSON struct {
	ID int32   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

func moveOp(class string, wr write) Op {
	return Op{Class: class, Want: http.StatusNoContent, Req: Request{Method: http.MethodPost, Path: "/move",
		Body: mustJSON(moveJSON{ID: wr.u, X: wr.x, Y: wr.y})}, W: []write{wr}}
}

// movesOp is an async /moves batch (202), or a flushed one (200).
func movesOp(class string, ws []write, flush bool) Op {
	body := struct {
		Moves []moveJSON `json:"moves"`
		Flush bool       `json:"flush,omitempty"`
	}{Flush: flush}
	for _, wr := range ws {
		body.Moves = append(body.Moves, moveJSON{ID: wr.u, X: wr.x, Y: wr.y})
	}
	want := http.StatusAccepted
	if flush {
		want = http.StatusOK
	}
	return Op{Class: class, Want: want, Req: Request{Method: http.MethodPost, Path: "/moves", Body: mustJSON(body)}, W: ws}
}

// edgeOp is a one-edge /edges request with flush:true.
func edgeOp(class string, wr write) Op {
	type edge struct {
		U      int32   `json:"u"`
		V      int32   `json:"v"`
		W      float64 `json:"w,omitempty"`
		Remove bool    `json:"remove,omitempty"`
	}
	body := struct {
		Edges []edge `json:"edges"`
		Flush bool   `json:"flush"`
	}{Edges: []edge{{U: wr.u, V: wr.v, W: wr.weight, Remove: wr.kind == 'r'}}, Flush: true}
	return Op{Class: class, Want: http.StatusOK, Req: Request{Method: http.MethodPost, Path: "/edges", Body: mustJSON(body)}, W: []write{wr}}
}

// edgeChurn draws alternating friendship inserts and removals of earlier
// inserts among the users in pool, so the original graph is never thinned.
// An insert closes a triangle (u, x, v) of the construction graph with a
// weight below the two-hop path's, as new friendships mostly do, so it
// shortens social distances and makes the landmark tables repair.
type edgeChurn struct {
	w     *world
	pool  map[int32]bool
	users []int32
	added []write
}

func newEdgeChurn(w *world, pool []int32) *edgeChurn {
	c := &edgeChurn{w: w, pool: map[int32]bool{}, users: pool}
	for _, u := range pool {
		c.pool[u] = true
	}
	return c
}

func (c *edgeChurn) next() write {
	rng := c.w.rng
	if len(c.added) > 0 && rng.Intn(2) == 0 {
		a := c.added[0]
		c.added = c.added[1:]
		return write{kind: 'r', u: a.u, v: a.v}
	}
	for {
		u := c.users[rng.Intn(len(c.users))]
		xs, wx := c.w.g.Neighbors(u)
		if len(xs) == 0 {
			continue
		}
		j := rng.Intn(len(xs))
		vs, wv := c.w.g.Neighbors(xs[j])
		if len(vs) == 0 {
			continue
		}
		k := rng.Intn(len(vs))
		v := vs[k]
		if _, linked := c.w.g.EdgeWeight(u, v); v == u || linked || !c.pool[v] {
			continue
		}
		two := (wx[j] + wv[k]) * c.w.ds.Norms().Social
		wr := write{kind: 'a', u: u, v: v, weight: two * (0.5 + 0.4*rng.Float64())}
		c.added = append(c.added, wr)
		return wr
	}
}

// wireResult is the part of a /query reply the oracle checks.
type wireResult struct {
	Entries []struct {
		ID int32   `json:"id"`
		F  float64 `json:"f"`
	} `json:"entries"`
}

// fTol is the score tolerance of the oracle comparison: scores are sums of
// a few float64 products, computed in different orders by different
// algorithms.
const fTol = 1e-9

// matchReply compares a /query reply entry by entry with the oracle's
// result: every rank's score must agree within fTol, and the IDs must agree
// except inside a group of tied scores.
func matchReply(body []byte, want []ssrq.Entry) error {
	var got wireResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("bad reply %q: %v", bytes.TrimSpace(body), err)
	}
	if len(got.Entries) != len(want) {
		return fmt.Errorf("%d entries, oracle has %d", len(got.Entries), len(want))
	}
	for i, g := range got.Entries {
		if math.Abs(g.F-want[i].F) > fTol {
			return fmt.Errorf("rank %d: id %d f %.12g, oracle id %d f %.12g", i, g.ID, g.F, want[i].ID, want[i].F)
		}
	}
	// IDs within a tie group may come in any order; the last group may be
	// cut by k and hold different users with the same score, so only its
	// scores are checked.
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && math.Abs(want[j].F-want[i].F) <= fTol {
			j++
		}
		if j < len(want) {
			set := map[int32]bool{}
			for _, e := range want[i:j] {
				set[e.ID] = true
			}
			for _, g := range got.Entries[i:j] {
				if !set[g.ID] {
					return fmt.Errorf("rank %d: id %d not among the oracle's ids at score %.12g", i, g.ID, want[i].F)
				}
			}
		}
		i = j
	}
	return nil
}

// newOracle builds an in-process engine over the dataset file and replays
// the acknowledged-write log into it.
func newOracle(path string, log []write) (*ssrq.Engine, error) {
	ds, err := ssrq.LoadDataset(path)
	if err != nil {
		return nil, err
	}
	e, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		return nil, err
	}
	for i, wr := range log {
		if err := wr.apply(e); err != nil {
			e.Close()
			return nil, fmt.Errorf("oracle replay of write %d: %w", i, err)
		}
	}
	return e, nil
}

// checkReply compares one reply with BruteForce on the oracle.
func checkReply(oracle *ssrq.Engine, s qspec, body []byte) error {
	res, err := oracle.Query(ssrq.BruteForce, s.q, s.params())
	if err != nil {
		return fmt.Errorf("oracle %s: %w", s.path(), err)
	}
	if err := matchReply(body, res.Entries); err != nil {
		return fmt.Errorf("GET %s: %w", s.path(), err)
	}
	return nil
}
