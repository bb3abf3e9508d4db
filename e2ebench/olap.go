package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/analytics"
	"github.com/gdi-go/gdi/internal/baseline/graph500"
	"github.com/gdi-go/gdi/internal/kron"
)

const (
	bfsRoot       = 0
	pageRankIters = 10
	damping       = 0.85
	wccMaxIters   = 1000
)

// oracle holds the reference answers computed on a plain CSR of the same
// generated graph.
type oracle struct {
	visited    int64
	depth      int // levels the BFS expands: eccentricity of the root + 1
	components int64
}

func buildOracle(kc kron.Config) oracle {
	csr := kron.BuildCSR(kc)
	levels := graph500.BFS(csr, bfsRoot, runtime.GOMAXPROCS(0))
	ecc := int32(0)
	for _, l := range levels {
		ecc = max(ecc, l)
	}
	parent := make([]uint64, csr.N)
	for i := range parent {
		parent[i] = uint64(i)
	}
	find := func(x uint64) uint64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := uint64(0); u < csr.N; u++ {
		for _, v := range csr.Neighbors(u) {
			if a, b := find(u), find(v); a != b {
				parent[a] = b
			}
		}
	}
	var comps int64
	for u := uint64(0); u < csr.N; u++ {
		if find(u) == u {
			comps++
		}
	}
	return oracle{visited: int64(graph500.Visited(levels)), depth: int(ecc) + 1, components: comps}
}

// kernelCall is one SPMD kernel invocation: its wall time, each rank's own
// time inside Runtime.Run, and the traffic all ranks issued.
type kernelCall struct {
	wall    time.Duration
	rankNs  []int64
	traffic gdi.TrafficSnapshot
}

// skew is the slowest rank's time over the fastest's.
func (c kernelCall) skew() float64 {
	lo, hi := c.rankNs[0], c.rankNs[0]
	for _, ns := range c.rankNs {
		lo, hi = min(lo, ns), max(hi, ns)
	}
	return float64(hi) / float64(max(lo, 1))
}

// round is one BFS + PageRank + WCC pass and what it computed.
type round struct {
	calls   [3]kernelCall // bfs, pagerank, wcc
	visited int64
	depth   int
	mass    float64
	prHash  uint64
	comps   int64
}

func (r round) wall() time.Duration { return r.calls[0].wall + r.calls[1].wall + r.calls[2].wall }

// runKernel runs fn on every rank, timing each rank and recording its
// traffic; with tracers it also records one span per rank.
func runKernel(g *graphDB, tracers []*tracer, k kind, fn func(p *gdi.Process) error) (kernelCall, error) {
	c := kernelCall{rankNs: make([]int64, g.ranks)}
	deltas := make([]gdi.TrafficSnapshot, g.ranks)
	errs := make([]error, g.ranks)
	fab := g.rt.Transport()
	t0 := time.Now()
	g.rt.Run(g.db, func(p *gdi.Process) {
		r := p.Rank()
		var tr *tracer
		if tracers != nil {
			tr = tracers[r]
		}
		before := fab.CounterSnapshot(r)
		tr.begin(k)
		t := time.Now()
		errs[r] = fn(p)
		c.rankNs[r] = time.Since(t).Nanoseconds()
		tr.end(0, errs[r] != nil)
		deltas[r] = diff(fab.CounterSnapshot(r), before)
	})
	c.wall = time.Since(t0)
	for _, d := range deltas {
		c.traffic.Add(d)
	}
	return c, errors.Join(errs...)
}

// prHash folds one rank's PageRank vector into an order-independent
// fingerprint of every (appID, exact bits) pair.
func prHash(pr map[uint64]float64) uint64 {
	var h uint64
	for app, v := range pr {
		h ^= mix64(app*0x9e3779b97f4a7c15 ^ math.Float64bits(v))
	}
	return h
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func runRound(g *graphDB, ag *analytics.Graph, tracers []*tracer) (round, error) {
	var rd round
	visited := make([]int64, g.ranks)
	depth := make([]int, g.ranks)
	mass := make([]float64, g.ranks)
	hashes := make([]uint64, g.ranks)
	roots := make([]int64, g.ranks)
	for _, t := range tracers {
		t.begin(kOp)
	}
	var err error
	rd.calls[0], err = runKernel(g, tracers, kBFS, func(p *gdi.Process) (err error) {
		visited[p.Rank()], depth[p.Rank()], err = analytics.BFS(p, ag, bfsRoot)
		return err
	})
	if err != nil {
		return rd, fmt.Errorf("bfs: %w", err)
	}
	rd.calls[1], err = runKernel(g, tracers, kPageRank, func(p *gdi.Process) error {
		pr, m, err := analytics.PageRank(p, ag, pageRankIters, damping)
		mass[p.Rank()], hashes[p.Rank()] = m, prHash(pr)
		return err
	})
	if err != nil {
		return rd, fmt.Errorf("pagerank: %w", err)
	}
	rd.calls[2], err = runKernel(g, tracers, kWCC, func(p *gdi.Process) error {
		comp, _, err := analytics.WCC(p, ag, wccMaxIters)
		for app, c := range comp {
			if app == c {
				roots[p.Rank()]++
			}
		}
		return err
	})
	if err != nil {
		return rd, fmt.Errorf("wcc: %w", err)
	}
	for _, t := range tracers {
		t.end(0, false)
	}
	rd.visited, rd.depth, rd.mass = visited[0], depth[0], mass[0]
	for r := 0; r < g.ranks; r++ {
		rd.prHash ^= hashes[r]
		rd.comps += roots[r]
		if visited[r] != rd.visited || depth[r] != rd.depth || mass[r] != rd.mass {
			return rd, fmt.Errorf("ranks disagree: rank %d saw bfs %d/%d mass %v, rank 0 %d/%d %v",
				r, visited[r], depth[r], mass[r], rd.visited, rd.depth, rd.mass)
		}
	}
	return rd, nil
}

// olapWindow is what a run of rounds observed. Elapsed, allocation and GC
// figures cover the rounds themselves.
type olapWindow struct {
	rounds               []round
	elapsed              time.Duration
	allocBytes, gcCycles uint64
}

func (w *olapWindow) roundsPerSec() float64 {
	return ratio(float64(len(w.rounds)), w.elapsed.Seconds())
}

// runRounds runs rounds back to back for d and passes each to check. With
// tracers, every other round is traced and lands in tw, so host drift falls
// on the traced and untraced rounds alike; the others land in w.
func runRounds(g *graphDB, ag *analytics.Graph, d time.Duration, tracers []*tracer, check func(round)) (w, tw *olapWindow, err error) {
	w, tw = &olapWindow{}, &olapWindow{}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		dst, trs := w, []*tracer(nil)
		if tracers != nil && i%2 == 1 {
			dst, trs = tw, tracers
		}
		alloc0, gc0 := readGoMetrics()
		t0 := time.Now()
		rd, err := runRound(g, ag, trs)
		if err != nil {
			return nil, nil, err
		}
		dst.elapsed += time.Since(t0)
		alloc1, gc1 := readGoMetrics()
		dst.allocBytes += alloc1 - alloc0
		dst.gcCycles += gc1 - gc0
		check(rd)
		dst.rounds = append(dst.rounds, rd)
	}
	return w, tw, nil
}

// check compares a round with the oracle and with the first round.
func (rd round) check(want oracle, first round, chk *checker) {
	if rd.visited != want.visited || rd.depth != want.depth {
		chk.failf("bfs visited %d with %d levels, graph500 %d with %d", rd.visited, rd.depth, want.visited, want.depth)
	}
	if rd.comps != want.components {
		chk.failf("wcc found %d components, union-find %d", rd.comps, want.components)
	}
	if math.Abs(rd.mass-1) > 1e-9 {
		chk.failf("pagerank mass %.15f, want 1 within 1e-9", rd.mass)
	}
	if rd.prHash != first.prHash || math.Float64bits(rd.mass) != math.Float64bits(first.mass) {
		chk.failf("pagerank not bit-identical across repetitions (hash %x mass %v, first %x %v)", rd.prHash, rd.mass, first.prHash, first.mass)
	}
}

func runOLAP(o opts, spec workloadSpec, chk *checker) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	g, setups, err := setUpRepeated(spec.scale, spec.ranks, o.seed, chk)
	if err != nil {
		return nil, err
	}
	setupMetrics(res, setups, g.kc.NumEdges())
	want := buildOracle(g.kc)
	ag := &analytics.Graph{DB: g.db, Schema: g.sch}

	first, err := runRound(g, ag, nil) // warm-up
	if err != nil {
		return nil, err
	}
	first.check(want, first, chk)
	d := time.Duration(o.seconds) * time.Second
	var tracers []*tracer
	if o.trace {
		base := time.Now()
		for r := 0; r < g.ranks; r++ {
			tracers = append(tracers, newTracer(base, g.rt.Transport(), gdi.Rank(r)))
		}
	}
	w, tw, err := runRounds(g, ag, d, tracers, func(rd round) { rd.check(want, first, chk) })
	if err != nil {
		return nil, err
	}
	res.attempted = int64(len(w.rounds) + len(tw.rounds))
	res.e2e["ops_per_s"] = w.roundsPerSec()
	var walls latencies
	for _, rd := range w.rounds {
		walls = append(walls, rd.wall().Nanoseconds())
	}
	fmt.Printf("ops: %d rounds of bfs + pagerank + wcc in %.3f s\n", len(w.rounds), w.elapsed.Seconds())
	fmt.Printf("ops_per_s: %.4f rounds/s\n", res.e2e["ops_per_s"])
	latencyMetrics(res, walls)
	for i, name := range []string{"bfs", "pagerank", "wcc"} {
		var ms []float64
		for _, rd := range w.rounds {
			ms = append(ms, float64(rd.calls[i].wall.Nanoseconds())/1e6)
		}
		fmt.Printf("%s_ms: %.3f ms (median of %d)\n", name, median(ms), len(ms))
	}
	fmt.Printf("results: bfs visited %d in %d levels, wcc %d components, pagerank mass %.15f hash %016x\n",
		first.visited, first.depth, first.comps, first.mass, first.prHash)
	if o.trace {
		olapLayerMetrics(res, w, tw)
		saveTrace(o, tracers)
	}
	finish(res, g)
	return res, nil
}

// olapLayerMetrics derives the analytics figures from the traced rounds:
// traffic per kernel call summed over ranks, and the median rank skew.
func olapLayerMetrics(res *result, w, tw *olapWindow) {
	var total gdi.TrafficSnapshot
	n := float64(len(tw.rounds))
	for i, name := range []string{"bfs", "pagerank", "wcc"} {
		var t gdi.TrafficSnapshot
		var skews []float64
		for _, rd := range tw.rounds {
			t.Add(rd.calls[i].traffic)
			skews = append(skews, rd.calls[i].skew())
		}
		total.Add(t)
		res.layer["analytics."+name+"_put_trains"] = ratio(float64(t.PutBatches), n)
		res.layer["analytics."+name+"_bytes_put"] = ratio(float64(t.BytesPut), n)
		res.layer["analytics."+name+"_bytes_got"] = ratio(float64(t.BytesGot), n)
		res.layer["analytics."+name+"_rank_skew"] = median(skews)
	}
	fabricMetrics(res, total, n)
	res.layer["go.alloc_bytes_per_op"] = ratio(float64(w.allocBytes), float64(len(w.rounds)))
	res.layer["go.gc_cycles"] = float64(w.gcCycles)
	res.layer["trace.ops_per_s_overhead"] = 1 - ratio(tw.roundsPerSec(), w.roundsPerSec())
	fmt.Printf("traced rounds: %.4f rounds/s (untraced %.4f), tracing overhead %.4f\n",
		tw.roundsPerSec(), w.roundsPerSec(), res.layer["trace.ops_per_s_overhead"])
}
