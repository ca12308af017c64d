package core

import (
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
)

// graphDist is the §5.2 distance submodule of AIS (Algorithm 3): repeated
// exact social-distance computations from the fixed query vertex to varying
// targets, with both computation-sharing optimizations:
//
//   - forward-heap caching: the forward search is a single plain Dijkstra
//     whose heap and settled set persist across calls (plain, not A*,
//     precisely so the heap keys stay target-independent);
//   - distance caching: targets already settled by the forward search, or
//     lying on a previously reconstructed shortest path (table T), answer
//     without any search.
//
// AIS uses it through resolve, which only advances the forward search.
// AIS⁻ uses dist, which adds a reverse landmark A* from the target toward
// the query vertex, stopped by the rule of Algorithm 3 line 7 (see dist).
type graphDist struct {
	g        *graph.Graph
	lm       *landmark.Set
	q        graph.VertexID
	fwd      *graph.DijkstraIterator
	revPool  *graph.AStarPool
	hToQ     graph.Heuristic
	pathDist map[graph.VertexID]float64 // table T: distance-from-q of path members
	st       *Stats
	// fwdEvery throttles how often dist advances the shared forward
	// search: one forward pop per fwdEvery reverse pops. Algorithm 3
	// alternates 1:1; a larger value spends less on forward growth and
	// more on each reverse search. See BenchmarkAblationFwdEvery.
	fwdEvery int
	iter     int
}

func newGraphDist(g *graph.Graph, lm *landmark.Set, q graph.VertexID, revPool *graph.AStarPool, st *Stats) *graphDist {
	gd := &graphDist{}
	gd.reset(g, lm, q, &graph.DijkstraIterator{}, revPool, lm.HeuristicTo(q), st, 1)
	return gd
}

// reset re-arms the submodule in place for a fresh query, reusing the path
// table's buckets and the caller-provided (typically pooled) forward
// iterator. fwd is re-armed from q; hToQ must estimate distances to q against
// lm's epoch.
func (gd *graphDist) reset(g *graph.Graph, lm *landmark.Set, q graph.VertexID,
	fwd *graph.DijkstraIterator, revPool *graph.AStarPool, hToQ graph.Heuristic, st *Stats, fwdEvery int) {
	fwd.Reset(g, q)
	gd.g = g
	gd.lm = lm
	gd.q = q
	gd.fwd = fwd
	gd.revPool = revPool
	gd.hToQ = hToQ
	if gd.pathDist == nil {
		gd.pathDist = make(map[graph.VertexID]float64)
	} else {
		clear(gd.pathDist)
	}
	gd.st = st
	gd.fwdEvery = fwdEvery
	gd.iter = 0
	// Settle the source immediately so reverse searches can always meet a
	// non-empty forward tree.
	if _, _, ok := gd.fwd.Next(); ok {
		st.SocialPops++
	}
}

// resolve is AIS's delayed evaluation (§5.3) of candidate v, popped from the
// branch-and-bound heap with key popped and spatial distance d. It advances
// the shared forward Dijkstra until one of three things happens:
//
//   - v is settled: exact reports its distance p;
//   - the query's component is exhausted without v: exact reports +Inf;
//   - combine(alpha, β, d) exceeds popped, where β is the forward head key:
//     exact is false and key is that strictly larger lower bound, with
//     which the caller pushes v back.
//
// Exactness: the forward search is plain Dijkstra, so its head key lower-
// bounds p(v_q, x) for every unsettled x, and combine is monotone in p; the
// returned key is therefore admissible for f(v), and it lies strictly above
// popped, so every push-back makes progress. No reverse search runs: every
// candidate is answered by the one forward search all candidates share.
// Only an exact answer counts as a GraphDist call.
func (gd *graphDist) resolve(v graph.VertexID, alpha, d, popped float64) (p, key float64, exact bool) {
	if pv, ok := gd.known(v); ok {
		gd.st.GraphDistCalls++
		return pv, 0, true
	}
	for {
		beta, ok := gd.fwd.HeadKey()
		if !ok {
			// The query's component is fully settled and v is not in it.
			gd.st.GraphDistCalls++
			return graph.Infinity, 0, true
		}
		if key := combine(alpha, beta, d); key > popped {
			return 0, key, false
		}
		x, px, _ := gd.fwd.Next()
		gd.st.SocialPops++
		if x == v {
			gd.st.GraphDistCalls++
			return px, 0, true
		}
	}
}

// known returns the exact distance when it is available for free — from the
// forward settled set or the path table T.
func (gd *graphDist) known(v graph.VertexID) (float64, bool) {
	if d, ok := gd.fwd.SettledDist(v); ok {
		return d, true
	}
	if d, ok := gd.pathDist[v]; ok {
		return d, true
	}
	return 0, false
}

// dist computes the exact social distance p(v_q, v) — Algorithm 3, for
// AIS⁻. It alternates the shared forward Dijkstra with a reverse landmark
// A* from v, whose heuristic to v_q is consistent, so both searches settle
// exact labels. A reverse pop of a forward-settled vertex records the
// meeting path and is not expanded (Algorithm 3 line 18). minDist starts at
// the landmark upper bound, the length of a real q→landmark→v path, and
// only ever drops to the length of another real path.
//
// Exactness: let P be a shortest q–v path of length D, and suppose
// minDist > D. Walking P from q, the first vertex x the forward search has
// not settled is labeled exactly, so the forward head key is at most
// p(v_q, x) ≤ D. (If there is no such x, v is settled and known answered.)
// Walking P from v, take the first vertex z that the reverse search has
// not expanded. z was not popped unexpanded: it would have been
// forward-settled then, and its meeting would have recorded D. So z sits
// in the reverse frontier with its exact label, and the reverse head key
// is at most g(z) + h(z) ≤ D. Neither head key reaches minDist and the
// reverse frontier is not empty, so the loop cannot stop while
// minDist > D. When it stops, minDist = D (+Inf when v is unreachable).
func (gd *graphDist) dist(v graph.VertexID) float64 {
	gd.st.GraphDistCalls++
	if v == gd.q {
		return 0
	}
	if d, ok := gd.known(v); ok {
		return d
	}
	if gd.fwd.Exhausted() {
		// The query's component is fully settled and v is not in it.
		return graph.Infinity
	}

	rev := gd.revPool.NewSearch(gd.g, v, gd.hToQ)
	// A realized landmark detour (q→landmark→v) seeds the best-known
	// distance, letting many reverse searches certify termination after a
	// handful of pops (an ALT-style strengthening of Algorithm 3; it is
	// exact because the detour is a real path, see above).
	minDist := gd.lm.UpperBound(gd.q, v)
	meet := graph.VertexID(-1)

	for {
		// Either frontier's head key certifies optimality (both searches
		// settle exact distances: forward is plain Dijkstra, reverse uses a
		// consistent landmark heuristic).
		revKey, revOK := rev.HeadKey()
		if !revOK {
			break // reverse frontier exhausted
		}
		if minDist <= revKey {
			break
		}
		if fwdKey, ok := gd.fwd.HeadKey(); ok && minDist <= fwdKey {
			break
		}
		// Forward step (shared Dijkstra), throttled by fwdEvery.
		gd.iter++
		if gd.iter%gd.fwdEvery == 0 {
			if vf, df, ok := gd.fwd.Next(); ok {
				gd.st.SocialPops++
				if dr, settled := rev.SettledDist(vf); settled {
					if d := df + dr; d < minDist {
						minDist, meet = d, vf
					}
				}
			}
		}
		// Reverse step (landmark A*).
		vr, dr, ok := rev.Pop()
		if !ok {
			break
		}
		gd.st.SocialPops++
		gd.st.ReversePops++
		if df, settled := gd.fwd.SettledDist(vr); settled {
			if d := df + dr; d < minDist {
				minDist, meet = d, vr
			}
			// Algorithm 3 line 18: no need to push vr's neighbors — any
			// continuation through vr is dominated by this meeting path.
		} else {
			rev.Expand(vr)
		}
	}

	if meet >= 0 {
		// Distance caching: record the reverse portion of the shortest path
		// in T. (The forward portion is already covered by the forward
		// settled set.) By prefix optimality, every vertex x on the path has
		// p(v_q, x) = minDist − g_rev(x).
		for x := meet; x >= 0; x = rev.ParentOf(x) {
			if gx, ok := rev.LabelDist(x); ok {
				gd.pathDist[x] = minDist - gx
			}
		}
	}
	return minDist
}

// freshBidirectional is the unshared evaluator of AIS-BID: a fresh
// bidirectional ALT search per target, exactly the [25] baseline of Fig. 10.
type freshBidirectional struct {
	g       *graph.Graph
	lm      *landmark.Set
	q       graph.VertexID
	hToQ    graph.Heuristic
	fwdPool *graph.AStarPool
	revPool *graph.AStarPool
	st      *Stats
}

func (fb *freshBidirectional) dist(v graph.VertexID) float64 {
	fb.st.GraphDistCalls++
	if v == fb.q {
		return 0
	}
	res := graph.BidirectionalDijkstra(fb.g, fb.q, v, fb.lm.HeuristicTo(v), fb.hToQ, fb.fwdPool, fb.revPool)
	fb.st.SocialPops += res.Pops
	return res.Dist
}
