package gdi_test

// Ablation benchmarks for the design choices the paper highlights as
// "Major Design Choice & Insight" boxes:
//
//   - BGDL block size (§5.5): the communication/fragmentation trade-off —
//     larger blocks mean fewer block operations per holder but more wasted
//     pool memory.
//   - Lightweight vs. heavy edges (§5.4.2): inline records vs. dedicated
//     edge holders.
//   - Collective vs. pointwise transactions for global reads (§3.3): the
//     cost of per-vertex read locking that collective read transactions
//     elide.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/baseline/graph500"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/workload"
)

// BenchmarkAblation_BlockSize sweeps the BGDL block size under LinkBench.
// Small blocks force multi-block holders (more block ops per access); large
// blocks waste pool memory (reported as blocks/vertex).
func BenchmarkAblation_BlockSize(b *testing.B) {
	cfg := kron.Config{Scale: 9, EdgeFactor: 8, Seed: 1, NumLabels: 20, NumProps: 13}.WithDefaults()
	const ranks = 2
	for _, bs := range []int{128, 256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("block=%dB", bs), func(b *testing.B) {
			rt := gdi.Init(ranks)
			db := rt.CreateDatabase(gdi.DatabaseParams{
				BlockSize:     bs,
				BlocksPerRank: int(cfg.NumVertices()*64/ranks/uint64(bs/128)) + (1 << 14),
			})
			sch, err := kron.DefineSchema(db.Engine(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
				b.Fatal(err)
			}
			// Pool usage after load exposes the fragmentation side.
			used := 0
			for r := 0; r < ranks; r++ {
				used += db.Engine().Store().BlocksPerRank() - 1 - db.Engine().FreeBlocks(gdi.Rank(r))
			}
			sys := &workload.GDASystem{DB: db, Schema: sch}
			b.ResetTimer()
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(sys, workload.RunConfig{
					Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: 1000,
					KeySpace: cfg.NumVertices(), Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				qps = res.QPS()
			}
			b.ReportMetric(qps, "queries/s")
			b.ReportMetric(float64(used)/float64(cfg.NumVertices()), "blocks/vertex")
		})
	}
}

// BenchmarkAblation_EdgeWeight compares creating lightweight edges (inline
// records, §5.4.2) against rich edges (dedicated holders) — the design that
// makes label-only edges nearly free.
func BenchmarkAblation_EdgeWeight(b *testing.B) {
	for _, heavy := range []bool{false, true} {
		name := "lightweight"
		if heavy {
			name = "rich"
		}
		b.Run(name, func(b *testing.B) {
			rt := gdi.Init(1)
			db := rt.CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 1 << 18})
			label, err := db.DefineLabel("L")
			if err != nil {
				b.Fatal(err)
			}
			weight, err := db.DefinePType("w", gdi.PTypeSpec{
				Datatype: gdi.TypeFloat64, Entity: gdi.EntityEdge, SizeType: gdi.SizeFixed, Limit: 8})
			if err != nil {
				b.Fatal(err)
			}
			p := db.Process(0)
			setup := p.StartTransaction(gdi.ReadWrite)
			const nv = 256
			ids := make([]gdi.VertexID, nv)
			for i := range ids {
				ids[i], err = setup.CreateVertex(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := setup.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := p.StartTransaction(gdi.ReadWrite)
				a := ids[i%nv]
				c := ids[(i+1)%nv]
				if heavy {
					_, err = tx.CreateRichEdge(a, c, gdi.DirOut,
						[]gdi.LabelID{label},
						[]gdi.Property{{PType: weight, Value: gdi.Float64Value(0.5)}})
				} else {
					_, err = tx.CreateEdge(a, c, gdi.DirOut, label)
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_FrontierBatching compares scalar frontier expansion
// (one blocking AssociateVertex round-trip per frontier vertex) against the
// batched path (AssociateVertices: one vectored fetch train per owner rank
// and level) under injected remote latency — the §5.6 overlap/batching
// design choice. The workload is a one-sided BFS (oneSidedBFS), where every
// rank traverses from its own root fetching remote holders directly, so
// roughly (ranks-1)/ranks of every frontier is remote. With
// RemoteLatencyNs = 1000 at 8 ranks the batched expansion collapses
// per-vertex round-trips into per-owner-rank ones and wins by far more
// than 2x. Before timing, both variants' reached-vertex counts are checked
// against the Graph500 reference BFS, one root per rank.
func BenchmarkAblation_FrontierBatching(b *testing.B) {
	cfg := kron.Config{Scale: 9, EdgeFactor: 8, Seed: 7, NumLabels: 4, NumProps: 3}.WithDefaults()
	const ranks = 8
	rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
	// 64-byte blocks make every holder span several blocks (the multi-block
	// regime of §5.5): the scalar path then pays one remote round-trip per
	// block, the batched path one train per owner rank per streaming round.
	db := rt.CreateDatabase(gdi.DatabaseParams{BlockSize: 64, BlocksPerRank: 1 << 17})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	ref := kron.BuildCSR(cfg)
	for _, batched := range []bool{false, true} {
		rt.Run(db, func(p *gdi.Process) {
			root := uint64(p.Rank())
			got, err := oneSidedBFS(p, root, batched)
			if want := int64(graph500.Visited(graph500.BFS(ref, root, 0))); err != nil || got != want {
				b.Errorf("batched=%v root=%d: visited %d (err %v), Graph500 %d", batched, root, got, err, want)
			}
		})
	}
	if b.Failed() {
		b.FailNow()
	}
	run := func(b *testing.B, batched bool) {
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				if _, err := oneSidedBFS(p, uint64(p.Rank()), batched); err != nil {
					b.Error(err)
				}
			})
		}
	}
	b.Run("scalar", func(b *testing.B) { run(b, false) })
	b.Run("batched", func(b *testing.B) { run(b, true) })
}

// oneSidedBFS traverses from rootApp entirely on the calling process: every
// frontier holder, local or remote, is fetched directly with one-sided reads
// — one AssociateVertices call (one vectored read train per owner rank and
// level) when batched, one blocking AssociateVertex per vertex otherwise.
// The other ranks run no traversal code; they only take part in the
// collective transaction's delimiting barriers. Collective: every rank
// calls it with its own root. It returns the reached-vertex count.
func oneSidedBFS(p *gdi.Process, rootApp uint64, batched bool) (int64, error) {
	tx := p.StartCollectiveTransaction(gdi.ReadOnly)
	defer tx.Commit()
	root, err := tx.TranslateVertexID(rootApp)
	if err != nil {
		return 0, err
	}
	seen := map[gdi.VertexID]bool{root: true}
	frontier := []gdi.VertexID{root}
	var visited int64
	for len(frontier) > 0 {
		visited += int64(len(frontier))
		var handles []*gdi.Vertex
		if batched {
			if handles, err = tx.AssociateVertices(frontier); err != nil {
				return 0, err
			}
		} else {
			handles = make([]*gdi.Vertex, len(frontier))
			for i, v := range frontier {
				if handles[i], err = tx.AssociateVertex(v); err != nil {
					return 0, err
				}
			}
		}
		var next []gdi.VertexID
		for _, h := range handles {
			if h == nil {
				continue
			}
			if err := h.ForEachNeighbor(gdi.MaskAll, func(nb gdi.VertexID) {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}); err != nil {
				return 0, err
			}
		}
		frontier = next
	}
	return visited, nil
}

// BenchmarkAblation_CommitBatching compares the scalar commit protocol (one
// remote round-trip per lock word and per dirty block, §5.6's naive
// write-back) against the batched write path: deferred lock upgrades
// resolved as one CAS train per owner rank, dirty blocks flushed as one
// vectored PUT train per owner rank, group commit coalescing concurrent
// workers of the same rank, and a final per-rank release train — the
// write-side twin of FrontierBatching. The workload is multi-vertex update
// transactions over rank-disjoint key chunks (no lock contention, so the
// measurement isolates commit traffic) against uniform holders carrying a
// fixed-size payload: with round-robin vertex placement, (ranks-1)/ranks of
// every write set is remote, and 64-byte blocks put every holder in the
// multi-block regime of §5.5. The scalar apply phase then pays one remote
// round-trip per lock word and per holder block, while the batched commit
// pays a handful of per-rank trains per transaction. With
// RemoteLatencyNs = 1000 at 8 ranks the batched path must win by at
// least 2x.
func BenchmarkAblation_CommitBatching(b *testing.B) {
	const (
		ranks          = 8
		workersPerRank = 2
		txPerWorker    = 8
		updatesPerTx   = 48
		numVertices    = 2048
		payloadBytes   = 256 // ~6 blocks per holder at 64B blocks
	)
	run := func(b *testing.B, scalarCommit bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize: 64, BlocksPerRank: 1 << 13, ScalarCommit: scalarCommit,
		})
		payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var specs []gdi.VertexSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					specs = append(specs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
					})
				}
			}
			if err := p.BulkLoadVertices(specs); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		// Resolve every appID once up front: the benchmark measures commit
		// traffic, not index lookups. Each (rank, worker) pair updates its
		// own disjoint chunk, so transactions never contend on locks.
		ids := make([]gdi.VertexID, numVertices)
		{
			tx := db.Process(0).StartTransaction(gdi.ReadOnly)
			for app := uint64(0); app < numVertices; app++ {
				if ids[app], err = tx.TranslateVertexID(app); err != nil {
					b.Fatal(err)
				}
			}
			tx.Commit()
		}
		const chunk = numVertices / (ranks * workersPerRank)
		newPayload := make([]byte, payloadBytes)
		for i := range newPayload {
			newPayload[i] = byte(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				var wg sync.WaitGroup
				for w := 0; w < workersPerRank; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := uint64(chunk * (int(p.Rank())*workersPerRank + w))
						for t := 0; t < txPerWorker; t++ {
							tx := p.StartTransaction(gdi.ReadWrite)
							dps := make([]gdi.VertexID, updatesPerTx)
							for j := range dps {
								dps[j] = ids[base+uint64((t*updatesPerTx+j*5)%chunk)]
							}
							hs, err := tx.AssociateVertices(dps)
							if err != nil {
								b.Error(err)
								tx.Abort()
								return
							}
							for j, h := range hs {
								if h == nil {
									b.Errorf("vertex %v missing", dps[j])
									tx.Abort()
									return
								}
								if err := h.SetProperty(payload, newPayload); err != nil {
									b.Error(err)
									tx.Abort()
									return
								}
							}
							if err := tx.Commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
	b.Run("scalar", func(b *testing.B) { run(b, true) })
	b.Run("batched", func(b *testing.B) { run(b, false) })
}

// BenchmarkCacheAblation compares the locked, uncached read path (every
// read-only transaction read-locks its vertex and re-fetches the holder,
// one GET round per block) against the cached optimistic path of the
// version-validated block cache: no read locks at all, the holder
// revalidated against its guard word's version stamp and served from the
// rank-local cache, plus one validation word train at commit. The workload
// is the §6.4 OLTP point-read shape — single-vertex read transactions (the
// GetProps op that dominates the read-mostly mixes) over a shared keyspace,
// so with round-robin placement (ranks-1)/ranks of all reads are remote —
// against uniform holders carrying a fixed-size payload: 64-byte blocks put
// every holder deep in the multi-block regime of §5.5, where the uncached
// path pays two lock atomics plus one remote round-trip per holder block
// and the warm cached path pays two remote atomics in total. With
// RemoteLatencyNs = 1000 at 8 ranks the cached+optimistic path must win by
// at least 2x (measured ~2.3x on a single-core runner; the margin grows
// with cores, since only the uncached path's spins serialize).
func BenchmarkCacheAblation(b *testing.B) {
	const (
		ranks        = 8
		txPerRank    = 32
		numVertices  = 2048
		payloadBytes = 512 // ~10 blocks per holder at 64B blocks
	)
	run := func(b *testing.B, cached bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:       64,
			BlocksPerRank:   1 << 14,
			CacheBlocks:     cached,
			CacheCapacity:   1 << 15,
			OptimisticReads: cached,
		})
		payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var specs []gdi.VertexSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					specs = append(specs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
					})
				}
			}
			if err := p.BulkLoadVertices(specs); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		ids := make([]gdi.VertexID, numVertices)
		{
			tx := db.Process(0).StartTransaction(gdi.ReadOnly)
			for app := uint64(0); app < numVertices; app++ {
				if ids[app], err = tx.TranslateVertexID(app); err != nil {
					b.Fatal(err)
				}
			}
			tx.Commit()
		}
		readRound := func(p *gdi.Process) {
			for t := 0; t < txPerRank; t++ {
				tx := p.StartTransaction(gdi.ReadOnly)
				h, err := tx.AssociateVertex(ids[(int(p.Rank())*7919+t*37)%numVertices])
				if err != nil {
					b.Error(err)
					tx.Abort()
					return
				}
				h.Property(payload)
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}
		// One warm round outside the measurement: the cached run measures
		// the steady state the ROADMAP targets (a holder read moments after
		// it was last read), not the cold fill.
		rt.Run(db, func(p *gdi.Process) { readRound(p) })
		db.Engine().Fabric().ResetCounters()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) { readRound(p) })
		}
		b.StopTimer()
		if cached {
			snap := db.Engine().Fabric().TotalSnapshot()
			if lookups := snap.CacheHits + snap.CacheMisses; lookups > 0 {
				b.ReportMetric(float64(snap.CacheHits)/float64(lookups)*100, "hit%")
			}
		}
	}
	b.Run("locked-uncached", func(b *testing.B) { run(b, false) })
	b.Run("cached-optimistic", func(b *testing.B) { run(b, true) })
}

// BenchmarkRebalanceAblation measures what workload-aware rebalancing buys
// under skewed OLTP traffic: Zipf-distributed point reads/writes where every
// rank has its own hot set (worker-affine skew, the shape real multi-tenant
// traffic takes) whose members land on *other* ranks under static hashed
// placement. Clients cache appID→DPtr translations and refresh them when a
// read chases a migration forwarding stub, exactly like a session that keeps
// a handle. The static variant keeps the seed placement; the rebalanced
// variant runs one Rebalance collective after a warmup round, live-migrating
// each hot vertex onto its dominant accessor — after which the Zipf head
// mass (~90% at s=1.2 with per-rank top-K coverage) is served with zero
// remote latency. With RemoteLatencyNs = 1000 at 8 ranks the rebalanced run
// must deliver at least 1.5x the static throughput.
func BenchmarkRebalanceAblation(b *testing.B) {
	const (
		ranks        = 8
		numVertices  = 4096
		warmupOps    = 2000
		opsPerRank   = 400
		payloadBytes = 64
		zipfS        = 1.2
	)
	run := func(b *testing.B, rebalanced bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:             512,
			BlocksPerRank:         1 << 13,
			LockTries:             512,
			RebalanceHeatTracking: true, // both variants pay for tracking
			RebalanceTopK:         1024,
			RebalanceMinHeat:      2,
			RebalanceMaxMoves:     4096,
		})
		payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var specs []gdi.VertexSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					specs = append(specs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
					})
				}
			}
			if err := p.BulkLoadVertices(specs); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		zipf := workload.NewZipf(numVertices, zipfS)
		// Per-rank translation caches, refreshed when a fetch resolves to a
		// migrated primary (h.ID() differs from the cached DPtr).
		caches := make([]map[uint64]gdi.VertexID, ranks)
		for r := range caches {
			caches[r] = make(map[uint64]gdi.VertexID, numVertices)
		}
		opRound := func(p *gdi.Process, seed int64, ops int) {
			rng := rand.New(rand.NewSource(seed))
			cache := caches[p.Rank()]
			for i := 0; i < ops; i++ {
				app := workload.WorkerKey(zipf.Sample(rng), int(p.Rank()), ranks, numVertices)
				write := rng.Intn(10) == 0
				mode := gdi.ReadOnly
				if write {
					mode = gdi.ReadWrite
				}
				tx := p.StartTransaction(mode)
				dp, cached := cache[app]
				if !cached {
					var err error
					if dp, err = tx.TranslateVertexID(app); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				}
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					continue // contention with a concurrent migration train
				}
				cache[app] = h.ID()
				if write {
					if err := h.SetProperty(payload, []byte{byte(i)}); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				} else {
					h.Property(payload)
				}
				if err := tx.Commit(); err != nil {
					continue
				}
			}
		}
		// Warmup records per-rank heat (and fills the translation caches).
		rt.Run(db, func(p *gdi.Process) { opRound(p, int64(p.Rank())*131+1, warmupOps) })
		if rebalanced {
			rebErrs := make([]error, ranks)
			rt.Run(db, func(p *gdi.Process) {
				_, rebErrs[p.Rank()] = p.Rebalance()
			})
			for _, err := range rebErrs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				opRound(p, int64(i)*7919+int64(p.Rank())*131+2, opsPerRank)
			})
		}
		b.StopTimer()
		qps := float64(b.N) * ranks * opsPerRank / time.Since(start).Seconds()
		b.ReportMetric(qps, "queries/s")
		if rebalanced {
			b.ReportMetric(float64(db.Engine().Migrations()), "migrations")
			b.ReportMetric(float64(db.Engine().ForwardedReads()), "forwards")
		}
	}
	b.Run("static", func(b *testing.B) { run(b, false) })
	b.Run("rebalanced", func(b *testing.B) { run(b, true) })
}

// BenchmarkReplicationAblation measures what k-replica holder chains buy on
// read-dominated skewed traffic: the same worker-affine Zipf shape as the
// rebalance ablation, but with ~1/16 writes and every rank seeding follower
// chains of its hottest remotely-owned vertices after the warmup round
// (ReplicateHot, k=3). An optimistic read of a replicated vertex is then
// served from the local follower chain — no remote GET train at all — and
// only the commit-time validation train still touches the primary. Writes
// keep a fixed payload size so the fan-out path (same holder shape) keeps
// the followers in lockstep instead of dropping them on reshape. With
// RemoteLatencyNs = 1000 at 8 ranks the k=3 run must deliver at least 1.5x
// the unreplicated throughput.
func BenchmarkReplicationAblation(b *testing.B) {
	const (
		ranks        = 8
		numVertices  = 4096
		warmupOps    = 2000
		opsPerRank   = 400
		payloadBytes = 64
		zipfS        = 1.2
		replicaK     = 3
		replicaTopM  = 1024
	)
	run := func(b *testing.B, replicated bool) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:             512,
			BlocksPerRank:         1 << 13,
			LockTries:             512,
			OptimisticReads:       true,
			RebalanceHeatTracking: true, // both variants pay for tracking
			RebalanceTopK:         1024,
		})
		payload, err := db.DefinePType("payload", gdi.PTypeSpec{Datatype: gdi.TypeBytes})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var specs []gdi.VertexSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					specs = append(specs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: payload, Value: make([]byte, payloadBytes)}},
					})
				}
			}
			if err := p.BulkLoadVertices(specs); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		zipf := workload.NewZipf(numVertices, zipfS)
		caches := make([]map[uint64]gdi.VertexID, ranks)
		for r := range caches {
			caches[r] = make(map[uint64]gdi.VertexID, numVertices)
		}
		opRound := func(p *gdi.Process, seed int64, ops int) {
			rng := rand.New(rand.NewSource(seed))
			cache := caches[p.Rank()]
			wp := make([]byte, payloadBytes)
			for i := 0; i < ops; i++ {
				app := workload.WorkerKey(zipf.Sample(rng), int(p.Rank()), ranks, numVertices)
				write := rng.Intn(16) == 0
				mode := gdi.ReadOnly
				if write {
					mode = gdi.ReadWrite
				}
				tx := p.StartTransaction(mode)
				dp, cached := cache[app]
				if !cached {
					var err error
					if dp, err = tx.TranslateVertexID(app); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				}
				h, err := tx.AssociateVertex(dp)
				if err != nil {
					tx.Abort()
					continue
				}
				cache[app] = h.ID()
				if write {
					wp[0] = byte(i) // fixed size: same shape, fan-out keeps replicas
					if err := h.SetProperty(payload, wp); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
				} else {
					h.Property(payload)
				}
				if err := tx.Commit(); err != nil {
					continue // optimistic abort: retry is the client's business
				}
			}
		}
		// Warmup records per-rank heat and fills the translation caches.
		rt.Run(db, func(p *gdi.Process) { opRound(p, int64(p.Rank())*131+1, warmupOps) })
		if replicated {
			rt.Run(db, func(p *gdi.Process) { p.ReplicateHot(replicaK, replicaTopM) })
		}
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				opRound(p, int64(i)*7919+int64(p.Rank())*131+2, opsPerRank)
			})
		}
		b.StopTimer()
		qps := float64(b.N) * ranks * opsPerRank / time.Since(start).Seconds()
		b.ReportMetric(qps, "queries/s")
		if replicated {
			st := db.ReplicaStats()
			b.ReportMetric(float64(st.Reads), "replreads")
			b.ReportMetric(float64(st.Reseeds), "reseeds")
			b.ReportMetric(float64(st.Drops), "repldrops")
		}
	}
	b.Run("unreplicated", func(b *testing.B) { run(b, false) })
	b.Run("replicated-k3", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_CollectiveVsLocalScan compares reading every vertex
// through one collective read transaction (lock-free, §3.3) against
// pointwise local read transactions (one lock round trip per vertex).
func BenchmarkAblation_CollectiveVsLocalScan(b *testing.B) {
	cfg := kron.Config{Scale: 9, EdgeFactor: 4, Seed: 1, NumLabels: 4, NumProps: 3}.WithDefaults()
	const ranks = 2
	rt := gdi.Init(ranks)
	db := rt.CreateDatabase(gdi.DatabaseParams{BlocksPerRank: 1 << 16})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	b.Run("collective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				tx := p.StartCollectiveTransaction(gdi.ReadOnly)
				for _, v := range p.LocalVertices() {
					h, err := tx.AssociateVertex(v)
					if err != nil {
						b.Error(err)
						return
					}
					h.Property(sch.AgeProp)
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
				}
			})
		}
	})
	b.Run("pointwise-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) {
				for _, v := range p.LocalVertices() {
					tx := p.StartTransaction(gdi.ReadOnly)
					h, err := tx.AssociateVertex(v)
					if err != nil {
						b.Error(err)
						return
					}
					h.Property(sch.AgeProp)
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
	})
}

// BenchmarkHTAPAblation measures what the snapshot subsystem buys: analytics
// over a pinned cut running concurrently with live OLTP, against (a) the same
// OLTP load with no analytics at all and (b) the stop-the-world alternative
// of running the load and the PageRank back to back. The OLTP side is
// open-loop (workload.RunConfig.ThinkNs): each worker offers a fixed arrival
// rate, the standard HTAP methodology — with the default closed-loop
// saturation there is no idle for analytics to hide in, and on a single-core
// runner the sub-50us simulated latencies busy-spin, so a saturating load
// would serialize against the analytics no matter how the snapshot path is
// built. Under a fixed offered load the two gates are real measurements:
// served OLTP QPS under concurrent analytics must stay >= 0.6x the
// analytics-free baseline, and the concurrent makespan (both jobs done) must
// beat stop-the-world by >= 1.3x, i.e. the cut must actually let the
// PageRank overlap the think-time gaps instead of waiting for the load to
// drain.
func BenchmarkHTAPAblation(b *testing.B) {
	cfg := kron.Config{Scale: 12, EdgeFactor: 16, Seed: 7, NumLabels: 4, NumProps: 3}.WithDefaults()
	const (
		ranks   = 8
		iters   = 120
		opsEach = 150
		thinkNs = 1_000_000 // 1ms between ops: ~0.15s of offered load per phase
	)
	rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
	db := rt.CreateDatabase(gdi.DatabaseParams{
		BlockSize:     512,
		BlocksPerRank: int((cfg.NumVertices()*12+cfg.NumEdges()*2)/ranks) + (1 << 14),
		HTAPSnapshots: true,
	})
	sch, err := kron.DefineSchema(db.Engine(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadGDA(rt, db, cfg, sch); err != nil {
		b.Fatal(err)
	}
	g := &analytics.Graph{DB: db, Schema: sch}
	sys := &workload.GDASystem{DB: db, Schema: sch}
	oltp := func(seed int64, base uint64) (workload.Result, error) {
		return workload.Run(sys, workload.RunConfig{
			Mix: workload.LinkBench, Workers: ranks, OpsPerWorker: opsEach,
			KeySpace: cfg.NumVertices(), Seed: seed, InsertBase: base,
			ThinkNs: thinkNs,
		})
	}
	pagerank := func(p *gdi.Process) {
		if _, _, err := analytics.PageRank(p, g, iters, 0.85); err != nil {
			b.Error(err)
		}
	}
	// Each phase's inserts draw from a disjoint appID chunk.
	const chunk = uint64(ranks*opsEach + ranks)
	var qpsBase, qpsConc, makespan float64
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 3 * chunk
		// Phase 1: the offered load with no analytics.
		res, err := oltp(int64(3*i+1), base)
		if err != nil {
			b.Fatal(err)
		}
		qpsBase = res.QPS()
		// Phase 2: stop-the-world — drain the load, then run the PageRank.
		t0 := time.Now()
		if _, err := oltp(int64(3*i+2), base+chunk); err != nil {
			b.Fatal(err)
		}
		rt.Run(db, pagerank)
		stw := time.Since(t0)
		// Phase 3: the same load with the PageRank concurrent over a cut.
		t0 = time.Now()
		done := make(chan error, 1)
		var cres workload.Result
		go func() {
			r, err := oltp(int64(3*i+3), base+2*chunk)
			cres = r
			done <- err
		}()
		rt.Run(db, func(p *gdi.Process) {
			s, err := analytics.OpenHTAP(p, g)
			if err != nil {
				b.Error(err)
				return
			}
			defer s.Close()
			if _, _, err := s.PageRank(iters, 0.85); err != nil {
				b.Error(err)
			}
		})
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		htap := time.Since(t0)
		qpsConc = cres.QPS()
		makespan = stw.Seconds() / htap.Seconds()
	}
	b.ReportMetric(qpsBase, "oltp-qps")
	b.ReportMetric(qpsConc, "htap-qps")
	b.ReportMetric(qpsConc/qpsBase, "qps-ratio")
	b.ReportMetric(makespan, "makespan-x")
}

// BenchmarkCodecAblation measures what the v2 holder wire format buys on the
// §6.4 OLTP shape it was built for: point-read transactions with a commit mix
// over vertices whose holders are dominated by inline edge records. 64-byte
// blocks put every holder in the multi-block regime, so the read path pays
// one remote round per block and the commit write-back one PUT per block —
// the delta+varint edge runs of v2 shrink the edge region by ~4x, holders
// span fewer blocks, and both the latency (fewer rounds at RemoteLatencyNs =
// 1000) and the traffic (bytes/op, from the fabric byte counters) drop.
// Neighbors are co-located mod ranks, the locality a partitioner produces
// and the delta encoding exploits. CI gates on BOTH ratios: v2 must be
// >= 1.4x faster and move >= 1.5x fewer bytes than v1 (see cmd/benchjson).
func BenchmarkCodecAblation(b *testing.B) {
	const (
		ranks       = 8
		txPerRank   = 32
		writeEvery  = 4 // every 4th transaction is a read-modify-write commit
		numVertices = 2048
		fan         = 12 // out-degree; in-degree matches (ring chords)
	)
	run := func(b *testing.B, codec gdi.HolderCodec) {
		rt := gdi.Init(ranks, gdi.RuntimeOptions{RemoteLatencyNs: 1000})
		db := rt.CreateDatabase(gdi.DatabaseParams{
			BlockSize:       64,
			BlocksPerRank:   1 << 14,
			OptimisticReads: true,
			HolderCodec:     codec,
		})
		seq, err := db.DefinePType("seq", gdi.PTypeSpec{
			Datatype: gdi.TypeUint64, SizeType: gdi.SizeFixed, Limit: 8})
		if err != nil {
			b.Fatal(err)
		}
		var loadErr error
		rt.Run(db, func(p *gdi.Process) {
			var vs []gdi.VertexSpec
			var es []gdi.EdgeSpec
			if p.Rank() == 0 {
				for app := uint64(0); app < numVertices; app++ {
					vs = append(vs, gdi.VertexSpec{
						AppID: app,
						Props: []gdi.Property{{PType: seq, Value: gdi.Uint64Value(0)}},
					})
				}
				for app := uint64(0); app < numVertices; app++ {
					for k := 1; k <= fan; k++ {
						// Chords in steps of `ranks` keep each neighbor on the
						// origin's rank: dense DPtr deltas, the partitioned
						// locality v2's varint runs compress.
						es = append(es, gdi.EdgeSpec{
							OriginApp: app,
							TargetApp: (app + uint64(k*ranks)) % numVertices,
							Dir:       gdi.DirOut,
						})
					}
				}
			}
			if err := p.BulkLoadVertices(vs); err != nil {
				loadErr = err
				return
			}
			if err := p.BulkLoadEdges(es); err != nil {
				loadErr = err
			}
		})
		if loadErr != nil {
			b.Fatal(loadErr)
		}
		ids := make([]gdi.VertexID, numVertices)
		{
			tx := db.Process(0).StartTransaction(gdi.ReadOnly)
			for app := uint64(0); app < numVertices; app++ {
				if ids[app], err = tx.TranslateVertexID(app); err != nil {
					b.Fatal(err)
				}
			}
			tx.Commit()
		}
		// Writers touch rank-disjoint chunks so the mix never aborts on lock
		// conflicts; reads roam the whole keyspace (7/8 remote).
		const chunk = numVertices / ranks
		workRound := func(p *gdi.Process) {
			for t := 0; t < txPerRank; t++ {
				if t%writeEvery == 0 {
					app := uint64(int(p.Rank())*chunk + (t*13)%chunk)
					tx := p.StartTransaction(gdi.ReadWrite)
					h, err := tx.AssociateVertex(ids[app])
					if err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
					cur, _ := h.Property(seq)
					if err := h.SetProperty(seq, gdi.Uint64Value(gdi.Uint64Of(cur)+1)); err != nil {
						b.Error(err)
						tx.Abort()
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
					continue
				}
				tx := p.StartTransaction(gdi.ReadOnly)
				h, err := tx.AssociateVertex(ids[(int(p.Rank())*7919+t*37)%numVertices])
				if err != nil {
					b.Error(err)
					tx.Abort()
					return
				}
				deg := 0
				if err := h.ForEachEdge(gdi.MaskAll, func(gdi.VertexID, gdi.Direction) {
					deg++
				}); err != nil {
					b.Error(err)
					tx.Abort()
					return
				}
				if deg != 2*fan {
					b.Errorf("degree = %d, want %d", deg, 2*fan)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}
		rt.Run(db, func(p *gdi.Process) { workRound(p) }) // warm-up round
		db.Engine().Fabric().ResetCounters()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Run(db, func(p *gdi.Process) { workRound(p) })
		}
		b.StopTimer()
		snap := db.Engine().Fabric().TotalSnapshot()
		ops := float64(b.N) * ranks * txPerRank
		b.ReportMetric(float64(snap.BytesPut+snap.BytesGot)/ops, "bytes/op")
		b.ReportMetric(float64(snap.BytesPut)/ops, "putbytes/op")
		b.ReportMetric(float64(snap.BytesGot)/ops, "getbytes/op")
	}
	b.Run("v1", func(b *testing.B) { run(b, gdi.CodecV1) })
	b.Run("v2", func(b *testing.B) { run(b, gdi.CodecV2) })
}
