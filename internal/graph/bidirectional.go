package graph

// BidirectionalResult reports the outcome of a point-to-point bidirectional
// search.
type BidirectionalResult struct {
	Dist    float64 // Infinity when unreachable
	Meeting VertexID
	Pops    int // vertices settled across both directions
}

// BidirectionalDijkstra computes the s-t distance by alternating a forward
// and a reverse Dijkstra until the best meeting path can no longer be
// improved. With hF/hR == ZeroHeuristic this is the classic algorithm; with
// consistent landmark heuristics it is the bidirectional ALT search of
// Goldberg & Harrelson [25], which AIS-BID issues afresh for every candidate
// evaluation (paper §6, Fig. 10).
//
// hF must lower-bound the remaining distance to t; hR must lower-bound the
// remaining distance to s. Stopping rule: with consistent heuristics, once
// best ≤ the head key of either frontier, no undiscovered path can beat
// best (Algorithm 3 of the paper stops on the reverse head key alone).
//
// Why: consistent heuristics make every settled label exact. Let P be a
// shortest s–t path of length D and suppose best > D. Forward: the first
// vertex x of P the forward search has not settled is labeled exactly, so
// the forward head key is at most g(x) + hF(x) ≤ D < best. If there is no
// such x, the forward search settled t after the reverse search did (on
// its first pop), and that meeting set best = D. Reverse: walking P from
// t, take the first vertex z the reverse search has not expanded. Either z
// was popped while forward-settled, and its meeting set best = D, or z is
// in the reverse frontier with its exact label, so the reverse head key is
// at most g(z) + hR(z) ≤ D < best. So neither test fires while best > D.
func BidirectionalDijkstra(g *Graph, s, t VertexID, hF, hR Heuristic, fwdPool, revPool *AStarPool) BidirectionalResult {
	if s == t {
		return BidirectionalResult{Dist: 0, Meeting: s}
	}
	if fwdPool == nil {
		fwdPool = NewAStarPool(g.NumVertices())
	}
	if revPool == nil {
		revPool = NewAStarPool(g.NumVertices())
	}
	fwd := fwdPool.NewSearch(g, s, hF)
	rev := revPool.NewSearch(g, t, hR)

	best := Infinity
	meet := VertexID(-1)
	consider := func(v VertexID, total float64) {
		if total < best {
			best = total
			meet = v
		}
	}

	for {
		fKey, fOK := fwd.HeadKey()
		rKey, rOK := rev.HeadKey()
		if !fOK && !rOK {
			break
		}
		// Either frontier's head key certifies optimality once reached.
		if (fOK && best <= fKey) || (rOK && best <= rKey) {
			break
		}
		if fOK {
			v, dv, _ := fwd.Pop()
			if dr, ok := rev.SettledDist(v); ok {
				consider(v, dv+dr)
			}
			fwd.Expand(v)
		}
		if rOK {
			v, dv, _ := rev.Pop()
			if df, ok := fwd.SettledDist(v); ok {
				consider(v, df+dv)
				// Matching Algorithm 3 line 18: a vertex already settled by
				// the opposite search need not be expanded.
			} else {
				rev.Expand(v)
			}
		}
	}
	return BidirectionalResult{Dist: best, Meeting: meet, Pops: fwd.Pops() + rev.Pops()}
}

// PointToPointDist is BidirectionalDijkstra with zero heuristics and fresh
// pools; a convenience for tests and one-off distance queries.
func PointToPointDist(g *Graph, s, t VertexID) float64 {
	return BidirectionalDijkstra(g, s, t, ZeroHeuristic, ZeroHeuristic, nil, nil).Dist
}
