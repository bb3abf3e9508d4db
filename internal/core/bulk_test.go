package core

import (
	"errors"
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
