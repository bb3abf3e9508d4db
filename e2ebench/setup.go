package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
)

// Fixed configuration of every workload: the 1 µs remote-latency model of
// the ablations and the production database path (v2 codec, block cache at
// its default capacity, optimistic reads, dense analytics, batched commit),
// pinned explicitly so a change of library defaults moves no number.
const (
	remoteLatencyNs = 1000
	blockSize       = 512
	cacheCapacity   = 8192
	edgeFactor      = 16
	numLabels       = 20
	numProps        = 13
	setupRepeats    = 3
)

func dbParams() gdi.DatabaseParams {
	return gdi.DatabaseParams{
		BlockSize:       blockSize,
		HolderCodec:     gdi.CodecV2,
		CacheBlocks:     true,
		CacheCapacity:   cacheCapacity,
		OptimisticReads: true,
		DenseAnalytics:  true,
		ScalarCommit:    false,
	}
}

func kronConfig(scale int, seed int64) kron.Config {
	return kron.Config{Scale: scale, EdgeFactor: edgeFactor, Seed: seed, NumLabels: numLabels, NumProps: numProps}.WithDefaults()
}

// graphDB is one loaded database.
type graphDB struct {
	rt    *gdi.Runtime
	db    *gdi.Database
	sch   kron.Schema
	kc    kron.Config
	ranks int
}

// setupSample is one set-up: wall time of generation plus both bulk loads,
// and each phase's wall time (the slowest rank's, as the phases end in
// collectives).
type setupSample struct {
	total, generate, bulkVertices, bulkEdges time.Duration
	edgeRemoteAtomics                        int64
	blocksInUse                              int64
}

// setUp creates a database, generates the Kronecker graph on every rank and
// bulk-loads it.
func setUp(scale, ranks int, seed int64) (*graphDB, setupSample, error) {
	kc := kronConfig(scale, seed)
	rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: remoteLatencyNs})
	db := rt.CreateDatabase(dbParams())
	sch, err := kron.DefineSchema(db.Engine(), kc)
	if err != nil {
		return nil, setupSample{}, fmt.Errorf("defining schema: %w", err)
	}
	gen := make([]time.Duration, ranks)
	bv := make([]time.Duration, ranks)
	be := make([]time.Duration, ranks)
	atomics := make([]int64, ranks)
	errs := make([]error, ranks)
	fab := rt.Transport()
	t0 := time.Now()
	rt.Run(db, func(p *gdi.Process) {
		r := int(p.Rank())
		t := time.Now()
		vs := kron.VerticesFor(kc, sch, r, ranks)
		es := kron.EdgesFor(kc, sch, r, ranks)
		gen[r] = time.Since(t)
		t = time.Now()
		errs[r] = p.BulkLoadVertices(vs)
		bv[r] = time.Since(t)
		before := fab.CounterSnapshot(p.Rank())
		t = time.Now()
		if err := p.BulkLoadEdges(es); err != nil {
			errs[r] = errors.Join(errs[r], err)
		}
		be[r] = time.Since(t)
		atomics[r] = fab.CounterSnapshot(p.Rank()).RemoteAtoms - before.RemoteAtoms
	})
	s := setupSample{total: time.Since(t0), generate: slices.Max(gen), bulkVertices: slices.Max(bv), bulkEdges: slices.Max(be)}
	if err := errors.Join(errs...); err != nil {
		return nil, s, fmt.Errorf("bulk load: %w", err)
	}
	for _, a := range atomics {
		s.edgeRemoteAtomics += a
	}
	g := &graphDB{rt: rt, db: db, sch: sch, kc: kc, ranks: ranks}
	s.blocksInUse = g.blocksInUse()
	return g, s, nil
}

// setUpRepeated sets up setupRepeats times, keeps the last database, and
// checks that every set-up left the same number of blocks in use.
func setUpRepeated(scale, ranks int, seed int64, chk *checker) (*graphDB, []setupSample, error) {
	var g *graphDB
	var samples []setupSample
	for i := 0; i < setupRepeats; i++ {
		g = nil // let the previous database go before building the next
		var s setupSample
		var err error
		g, s, err = setUp(scale, ranks, seed)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, s)
		if s.blocksInUse != samples[0].blocksInUse {
			chk.failf("set-up %d left %d blocks in use, set-up 0 left %d", i, s.blocksInUse, samples[0].blocksInUse)
		}
	}
	g.checkTranslates(chk)
	return g, samples, nil
}

// blocksInUse counts allocated blocks over all ranks.
func (g *graphDB) blocksInUse() int64 {
	eng := g.db.Engine()
	per := eng.Store().BlocksPerRank()
	var n int64
	for r := 0; r < g.ranks; r++ {
		n += int64(per - eng.FreeBlocks(gdi.Rank(r)))
	}
	return n
}

// checkTranslates verifies that every generated appID resolves through the
// index. The bulk loader ignores a failed index insert once a rank's entry
// pool is full, which otherwise surfaces much later as a misleading
// not-found error.
func (g *graphDB) checkTranslates(chk *checker) {
	n := g.kc.NumVertices()
	var mu sync.Mutex
	var missing []uint64
	var firstErr error
	g.rt.Run(g.db, func(p *gdi.Process) {
		var miss []uint64
		var ferr error
		const perTx = 256
		for start := uint64(p.Rank()); start < n; start += perTx * uint64(g.ranks) {
			tx := p.StartTransaction(gdi.ReadOnly)
			for app, k := start, 0; app < n && k < perTx; app, k = app+uint64(g.ranks), k+1 {
				if _, err := tx.TranslateVertexID(app); err != nil {
					if !errors.Is(err, gdi.ErrNotFound) && ferr == nil {
						ferr = err
					}
					miss = append(miss, app)
				}
			}
			if err := tx.Commit(); err != nil && ferr == nil {
				ferr = err
			}
		}
		mu.Lock()
		missing = append(missing, miss...)
		firstErr = errors.Join(firstErr, ferr)
		mu.Unlock()
	})
	if firstErr != nil {
		chk.failf("translating generated appIDs: %v", firstErr)
	}
	if len(missing) > 0 {
		chk.failf("%d of %d generated appIDs do not translate after set-up (first: %d)", len(missing), n, missing[0])
	}
}
