package analytics

import (
	"math"
	"sync"
	"testing"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
)

// testGraphCodec loads the deterministic Kronecker LPG under an explicit
// holder codec (testGraph is the CodecV1 shorthand).
func testGraphCodec(t *testing.T, ranks int, cfg kron.Config, codec gdi.HolderCodec) (*gdi.Runtime, *Graph) {
	t.Helper()
	cfg = cfg.WithDefaults()
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize: 512, BlocksPerRank: 1 << 16, HolderCodec: codec,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	var mu sync.Mutex
	rt.Run(db, func(p *gdi.Process) {
		n := p.Size()
		if err := p.BulkLoadVertices(kron.VerticesFor(cfg, sch, int(p.Rank()), n)); err != nil {
			mu.Lock()
			loadErr = err
			mu.Unlock()
			return
		}
		if err := p.BulkLoadEdges(kron.EdgesFor(cfg, sch, int(p.Rank()), n)); err != nil {
			mu.Lock()
			loadErr = err
			mu.Unlock()
		}
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return rt, &Graph{DB: db, Schema: sch}
}

// TestCodecGoldenEquivalence holds the v2 holder codec to bit-identical
// analytics results against v1 on the same graph, for both the dense CSR
// engine and the map-based reference oracle: a wire format is a storage
// concern, and the moment it reorders edge records or perturbs a float the
// kernels drift. PageRank mass per vertex and norm, BFS visited count and
// depth.
func TestCodecGoldenEquivalence(t *testing.T) {
	const ranks = 4
	type result struct {
		pr      map[uint64]float64
		prNorm  float64
		visited int64
		depth   int
	}
	results := make(map[gdi.HolderCodec]map[string]*result)
	engines := map[string]kernels{"dense": production, "oracle": oracle}
	for _, codec := range []gdi.HolderCodec{gdi.CodecV1, gdi.CodecV2} {
		rt, g := testGraphCodec(t, ranks, smallCfg, codec)
		results[codec] = make(map[string]*result)
		for name, k := range engines {
			res := &result{pr: make(map[uint64]float64)}
			results[codec][name] = res
			var mu sync.Mutex
			rt.Run(g.DB, func(p *gdi.Process) {
				pr, norm, err := k.pageRank(p, g, 5, 0.85)
				if err != nil {
					t.Error(err)
					return
				}
				visited, depth, err := k.bfs(p, g, 0)
				if err != nil {
					t.Error(err)
					return
				}
				mergeMaps(&mu, res.pr, pr)
				mu.Lock()
				res.prNorm, res.visited, res.depth = norm, visited, depth
				mu.Unlock()
			})
		}
	}
	for name := range engines {
		v1, v2 := results[gdi.CodecV1][name], results[gdi.CodecV2][name]
		if len(v1.pr) != len(v2.pr) {
			t.Fatalf("%s: PageRank covered %d (v1) vs %d (v2) vertices", name, len(v1.pr), len(v2.pr))
		}
		for app, want := range v1.pr {
			if got := v2.pr[app]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PageRank[%d] = %v (v2) vs %v (v1): not bit-identical", name, app, got, want)
			}
		}
		// The dense engine folds the norm over flat arrays in index order —
		// bit-exact across codecs. The oracle's final fold iterates a Go
		// map, so its summation order (and last-ulp rounding) varies run to
		// run regardless of codec; tolerance there, as in TestDenseGoldenEquivalence.
		if name == "dense" {
			if math.Float64bits(v1.prNorm) != math.Float64bits(v2.prNorm) {
				t.Fatalf("%s: PageRank norm %v (v2) vs %v (v1)", name, v2.prNorm, v1.prNorm)
			}
		} else if math.Abs(v1.prNorm-v2.prNorm) > 1e-9 {
			t.Fatalf("%s: PageRank norm %v (v2) vs %v (v1)", name, v2.prNorm, v1.prNorm)
		}
		if v1.visited != v2.visited || v1.depth != v2.depth {
			t.Fatalf("%s: BFS (%d, %d) (v2) vs (%d, %d) (v1)", name,
				v2.visited, v2.depth, v1.visited, v1.depth)
		}
	}
}
