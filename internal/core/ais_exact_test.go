// Differential exactness of AIS's delayed evaluation. AIS resolves every
// candidate through the one forward search all candidates share, so it must
// run no reverse search at all, and its answers must equal BruteForce's on
// every preset, α, k and label filter, on the monolith and on four shards,
// with some users moved outside the grid's bounds.
package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
)

func TestAISMatchesBruteForce(t *testing.T) {
	presets := []gen.Preset{gen.GowallaPreset, gen.UrbanPreset, gen.HomophilyPreset}
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	ks := []int{1, 5, 20}
	queries := 5
	if testing.Short() {
		queries = 2
	}
	for pi, p := range presets {
		t.Run(p.Name, func(t *testing.T) {
			ds, err := p.Dataset(600, int64(40+pi))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(70 + pi)))
			if ds.Labels == nil {
				// gowalla carries no labels; give it six, as the labeled
				// presets have, so the filter is exercised everywhere.
				labels := make([]uint64, ds.NumUsers())
				for v := range labels {
					labels[v] = 1 << uint(rng.Intn(6))
				}
				if err := ds.SetLabels(labels); err != nil {
					t.Fatal(err)
				}
			}
			users := locatedIDs(ds)
			// The filter is one label some located user carries.
			var filter uint64
			for _, u := range users {
				if l := ds.Labels[u]; l != 0 {
					filter = l & -l
					break
				}
			}
			opts := core.Options{Seed: int64(pi)}
			mono, err := core.NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer mono.Close()
			s4, err := shard.New(ds, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s4.Close()
			engines := []queryEngine{mono, s4}
			names := []string{"mono", "shard-4"}

			// Move one located user in twenty outside the grid's bounds, on
			// all four sides: the border cells take them in, and every cell
			// bound must still hold for them.
			b := ds.Bounds()
			var moves []core.Update
			for i := 0; i < len(users); i += 20 {
				far := 0.1 + rng.Float64()
				to := spatial.Point{X: b.MinX + rng.Float64()*b.Width(), Y: b.MinY + rng.Float64()*b.Height()}
				switch (i / 20) % 4 {
				case 0:
					to.X = b.MinX - far*b.Width()
				case 1:
					to.X = b.MaxX + far*b.Width()
				case 2:
					to.Y = b.MinY - far*b.Height()
				default:
					to.Y = b.MaxY + far*b.Height()
				}
				moves = append(moves, core.Update{ID: users[i], To: to})
			}
			for _, e := range engines {
				if err := e.ApplyUpdates(moves); err != nil {
					t.Fatal(err)
				}
			}

			for range queries {
				q := users[rng.Intn(len(users))]
				dist := ds.G.DistancesFrom(q)
				for ei, e := range engines {
					for _, alpha := range alphas {
						for _, k := range ks {
							for _, f := range []uint64{0, filter} {
								prm := core.Params{K: k, Alpha: alpha, Filter: f}
								label := fmt.Sprintf("%s q=%d α=%v k=%d filter=%#x", names[ei], q, alpha, k, f)
								checkAISAgainstBrute(t, label, e, q, prm, dist)
							}
						}
					}
				}
			}
		})
	}
}

// checkAISAgainstBrute requires AIS to return BruteForce's scores rank by
// rank, each entry's social part to be the exact distance, and no reverse
// search to have run.
func checkAISAgainstBrute(t *testing.T, label string, e queryEngine, q graph.VertexID, prm core.Params, dist []float64) {
	t.Helper()
	got, err := e.Query(core.AIS, q, prm)
	if err != nil {
		t.Fatalf("%s: AIS: %v", label, err)
	}
	want, err := e.Query(core.BruteForce, q, prm)
	if err != nil {
		t.Fatalf("%s: brute: %v", label, err)
	}
	if got.Stats.ReversePops != 0 {
		t.Fatalf("%s: AIS ran %d reverse pops, want 0", label, got.Stats.ReversePops)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: AIS returned %d entries, brute %d", label, len(got.Entries), len(want.Entries))
	}
	for i, ent := range got.Entries {
		if math.Abs(ent.F-want.Entries[i].F) > 1e-9 {
			t.Fatalf("%s: rank %d: AIS f=%v (id %d), brute f=%v (id %d)",
				label, i, ent.F, ent.ID, want.Entries[i].F, want.Entries[i].ID)
		}
		if math.Abs(ent.P-dist[ent.ID]) > 1e-9 {
			t.Fatalf("%s: rank %d: id %d social %v, exact %v", label, i, ent.ID, ent.P, dist[ent.ID])
		}
	}
}
