package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestBulkLoadOutOfStorage: a bulk load that runs out of index entries or
// blocks on some rank must return an error on every rank — ErrNoMemory
// naming the vertex on a rank that ran out — and must never leave another
// rank waiting in the closing collective.
func TestBulkLoadOutOfStorage(t *testing.T) {
	// Vertex i has appID i*stride; stride 2 puts every vertex on rank 0
	// (OwnerOf is appID mod ranks), so rank 1 never runs out itself.
	vertices := func(n, stride uint64) []VertexSpec {
		vs := make([]VertexSpec, n)
		for i := range vs {
			vs[i] = VertexSpec{AppID: uint64(i) * stride}
		}
		return vs
	}
	// Every vertex links to the next 40 (mod n, repeats allowed): its holder
	// outgrows one 256-byte block.
	dense := func(n, stride uint64) []EdgeSpec {
		var es []EdgeSpec
		for i := uint64(0); i < n; i++ {
			for k := uint64(1); k <= 40; k++ {
				es = append(es, EdgeSpec{OriginApp: i * stride, TargetApp: (i + k) % n * stride, Dir: holder.DirOut})
			}
		}
		return es
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		vertices []VertexSpec
		edges    []EdgeSpec // nil: stop after the vertex load
	}{
		{"index-entries", Config{BlockSize: 256, BlocksPerRank: 4096, DHTEntriesPerRank: 8}, vertices(64, 1), nil},
		{"vertex-blocks", Config{BlockSize: 256, BlocksPerRank: 40}, vertices(64, 2), nil},
		// 16 vertices per rank fit; the edges land only on rank 0's.
		{"edge-blocks", Config{BlockSize: 256, BlocksPerRank: 40}, vertices(32, 1), dense(16, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ranks = 2
			e := NewEngine(rma.New(ranks), tc.cfg)
			errs := make([]error, ranks)
			runBulk(t, e, func(r rma.Rank) {
				var vs []VertexSpec
				var es []EdgeSpec
				if r == 0 {
					vs, es = tc.vertices, tc.edges
				}
				if errs[r] = e.BulkLoadVertices(r, vs); errs[r] != nil || tc.edges == nil {
					return
				}
				errs[r] = e.BulkLoadEdges(r, es)
			})
			exhausted := false
			for r, err := range errs {
				switch {
				case errors.Is(err, ErrNoMemory):
					exhausted = true
					if !strings.Contains(err.Error(), "vertex ") {
						t.Errorf("rank %d: %v does not name the vertex", r, err)
					}
				case !errors.Is(err, errBulkPeer):
					t.Errorf("rank %d: bulk load returned %v, want ErrNoMemory or errBulkPeer", r, err)
				}
			}
			if !exhausted {
				t.Fatalf("no rank reported ErrNoMemory: %v", errs)
			}
		})
	}
}

// runBulk runs fn on every rank and fails the test unless all ranks return
// within the timeout.
func runBulk(t *testing.T, e *Engine, fn func(r rma.Rank)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.fab.Run(fn)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bulk load hung")
	}
}

// TestBulkLoadEdgeErrorOrder: with several unknown endpoints, the error
// names the first spec in order that has one, its origin before its target.
func TestBulkLoadEdgeErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		specs []EdgeSpec
		want  string
	}{
		{[]EdgeSpec{{OriginApp: 0, TargetApp: 1}, {OriginApp: 1, TargetApp: 998}, {OriginApp: 997, TargetApp: 0}}, "bulk edge target 998"},
		{[]EdgeSpec{{OriginApp: 996, TargetApp: 995}, {OriginApp: 0, TargetApp: 994}}, "bulk edge origin 996"},
	} {
		e := newEngine(t, 2)
		errs := make([]error, 2)
		runBulk(t, e, func(r rma.Rank) {
			if errs[r] = e.BulkLoadVertices(r, []VertexSpec{{AppID: uint64(r)}}); errs[r] != nil {
				return
			}
			var es []EdgeSpec
			if r == 0 {
				es = tc.specs
			}
			errs[r] = e.BulkLoadEdges(r, es)
		})
		if !errors.Is(errs[0], ErrNotFound) || !strings.HasSuffix(errs[0].Error(), tc.want) {
			t.Errorf("specs %v: %v, want ErrNotFound naming %q", tc.specs, errs[0], tc.want)
		}
	}
}

// TestBulkLoadEdgesBatchesLookups: bulk edge loading resolves its distinct
// endpoints in one batched lookup, so doubling the edges over a fixed vertex
// set does not double the index traffic, neither in remote atomic trains
// nor in remote atomics.
func TestBulkLoadEdgesBatchesLookups(t *testing.T) {
	const ranks, n = 4, 128
	traffic := func(edges int) (trains, atoms int64) {
		f := rma.New(ranks)
		e := NewEngine(f, Config{BlockSize: 256, BlocksPerRank: 4096})
		rng := rand.New(rand.NewSource(1))
		specs := make([]EdgeSpec, edges)
		for i := range specs {
			specs[i] = EdgeSpec{OriginApp: uint64(rng.Intn(n)), TargetApp: uint64(rng.Intn(n)), Dir: holder.DirOut}
		}
		runBulk(t, e, func(r rma.Rank) {
			var vs []VertexSpec
			for i := uint64(r); i < n; i += ranks {
				vs = append(vs, VertexSpec{AppID: i})
			}
			if err := e.BulkLoadVertices(r, vs); err != nil {
				t.Error(err)
			}
		})
		before := f.TotalSnapshot()
		runBulk(t, e, func(r rma.Rank) {
			var es []EdgeSpec
			for i := int(r); i < edges; i += ranks {
				es = append(es, specs[i])
			}
			if err := e.BulkLoadEdges(r, es); err != nil {
				t.Error(err)
			}
		})
		after := f.TotalSnapshot()
		return after.AtomicBatches - before.AtomicBatches, after.RemoteAtoms - before.RemoteAtoms
	}
	trains1, atoms1 := traffic(1024)
	trains2, atoms2 := traffic(2048)
	if trains1 == 0 || trains2 >= 2*trains1 {
		t.Errorf("remote atomic trains: %d for 1024 edges, %d for 2048", trains1, trains2)
	}
	if atoms2 >= 2*atoms1 {
		t.Errorf("remote atomics: %d for 1024 edges, %d for 2048", atoms1, atoms2)
	}
}
