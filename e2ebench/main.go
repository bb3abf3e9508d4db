// Command e2ebench is the end-to-end benchmark of the repository. It runs one
// named workload on the in-process simulator with the 1 µs remote-latency
// model, checks the outputs for correctness, and prints every metric by name
// and unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run alternates untraced and traced slices (one second
// each, or one round on olap) for --seconds, and the metrics are the
// per-layer ones: self time and traffic of each layer boundary, timed by
// spans this package puts around its calls into gdi, internal/query and
// internal/analytics, plus the tracing overhead.
//
// Workloads (closed loop, each client bound to its own rank):
//
//	linkbench         LinkBench mix, scale-14 graph, 8 ranks, 2 clients
//	ldbc-interactive  gdi-ldbc mix, scale-12 graph, 8 ranks, 2 clients
//	olap              BFS + PageRank + WCC back to back, scale-14, 2 ranks
//
// Run it from the repository root with e2ebench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	gdi "github.com/gdi-go/gdi"
)

// workloadSpec describes one workload. sessions is the closed-loop client
// count of the OLTP workloads; olap runs its kernels on every rank.
type workloadSpec struct {
	scale, ranks, sessions int
	why                    string
}

var workloads = map[string]workloadSpec{
	"linkbench": {scale: 14, ranks: 8, sessions: 2,
		why: "working set about 2.6x one rank's block cache: DHT lookups, remote fetches and commit trains"},
	"ldbc-interactive": {scale: 12, ranks: 8, sessions: 2,
		why: "fits in the cache: query layer, cache-hit path, holder decode, large read-only commits"},
	"olap": {scale: 14, ranks: 2,
		why: "CSR build, exchange PUT trains and collectives; bypasses DHT, cache, query layer and commit"},
}

const (
	// oltpWarmup lets the block caches fill before the measured window.
	oltpWarmup = 2 * time.Second
	// watchdog ends a run that hangs, so it never outlives its time limit.
	watchdog = 170 * time.Second
)

// checker collects correctness failures.
type checker struct {
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
}

// opts are the command-line arguments.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run())
}

func run() int {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: linkbench, ldbc-interactive or olap")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the graph generator and the op streams")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: alternate untraced and traced slices and print per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	spec, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, traceFlag)
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	printConfig(o, spec)

	chk := &checker{}
	var res *result
	var err error
	if o.workload == "olap" {
		res, err = runOLAP(o, spec, chk)
	} else {
		res, err = runOLTP(o, spec, chk)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, p := range chk.problems {
		fmt.Println("correctness: FAILED:", p)
	}
	if len(chk.problems) == 0 {
		fmt.Println("correctness: ok")
	}
	return printResult(o, res, len(chk.problems) == 0)
}

// metricDef names one metric of the JSON result and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed with --trace 0. Every workload reports each: an op
// is one transaction on the OLTP workloads and one BFS + PageRank + WCC
// round on olap.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"store_mb", "MiB"},
	{"heap_mb", "MiB"},
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"tail_us", "us"},
}

// layerMetrics are printed with --trace 1. A layer a workload bypasses
// reports 0.
var layerMetrics = []metricDef{
	{"setup.generate_s", "s"},
	{"setup.bulk_vertices_s", "s"},
	{"setup.bulk_edges_s", "s"},
	{"setup.remote_atomics_per_edge", "count"},
	{"dht.translate_us", "us"},
	{"dht.translates_per_op", "count"},
	{"dht.remote_atomics_per_translate", "count"},
	{"fetch.associate_us", "us"},
	{"fetch.remote_gets_per_call", "count"},
	{"fetch.bytes_got_per_call", "B"},
	{"fetch.atomic_trains_per_call", "count"},
	{"cache.hit_ratio", "ratio"},
	{"decode.edges_us", "us"},
	{"decode.edges_per_call", "count"},
	{"decode.property_us", "us"},
	{"mutate.us", "us"},
	{"query.run_ms", "ms"},
	{"query.rows_per_call", "count"},
	{"query.holders_per_row", "count"},
	{"query.get_trains_per_call", "count"},
	{"commit.ro_us", "us"},
	{"commit.ro_atomic_trains", "count"},
	{"commit.ro_remote_atomics", "count"},
	{"commit.rw_us", "us"},
	{"commit.rw_atomic_trains", "count"},
	{"commit.rw_put_trains", "count"},
	{"commit.rw_bytes_put", "B"},
	{"commit.abort_ratio", "ratio"},
	{"tx.abort_at_read_ratio", "ratio"},
	{"analytics.bfs_put_trains", "count"},
	{"analytics.bfs_bytes_put", "B"},
	{"analytics.bfs_bytes_got", "B"},
	{"analytics.bfs_rank_skew", "ratio"},
	{"analytics.pagerank_put_trains", "count"},
	{"analytics.pagerank_bytes_put", "B"},
	{"analytics.pagerank_bytes_got", "B"},
	{"analytics.pagerank_rank_skew", "ratio"},
	{"analytics.wcc_put_trains", "count"},
	{"analytics.wcc_bytes_put", "B"},
	{"analytics.wcc_bytes_got", "B"},
	{"analytics.wcc_rank_skew", "ratio"},
	{"fabric.trains_per_op", "count"},
	{"fabric.remote_ops_per_op", "count"},
	{"fabric.bytes_per_op", "B"},
	{"store.blocks_in_use", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"trace.ops_per_s_overhead", "ratio"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(o opts, res *result, correct bool) int {
	defs, vals := e2eMetrics, res.e2e
	if o.trace {
		defs, vals = layerMetrics, res.layer
	}
	ms := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		ms[d.name] = jsonMetric{Value: vals[d.name], Unit: d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// setupMetrics fills the set-up figures: the median over the repeated
// set-ups, and the store size the set-up left. The store is measured after
// set-up rather than after the run because writes grow it by about a block
// per 50 LinkBench ops, so a faster build would read as a larger store.
func setupMetrics(res *result, setups []setupSample, numEdges uint64) {
	var total, gen, bv, be []time.Duration
	var atomics []float64
	for _, s := range setups {
		total = append(total, s.total)
		gen = append(gen, s.generate)
		bv = append(bv, s.bulkVertices)
		be = append(be, s.bulkEdges)
		atomics = append(atomics, float64(s.edgeRemoteAtomics)/float64(numEdges))
	}
	res.e2e["setup_s"] = median(total).Seconds()
	res.layer["setup.generate_s"] = median(gen).Seconds()
	res.layer["setup.bulk_vertices_s"] = median(bv).Seconds()
	res.layer["setup.bulk_edges_s"] = median(be).Seconds()
	res.layer["setup.remote_atomics_per_edge"] = median(atomics)
	res.e2e["store_mb"] = float64(setups[0].blocksInUse*blockSize) / (1 << 20)
	secs := make([]string, len(total))
	for i, t := range total {
		secs[i] = fmt.Sprintf("%.3f", t.Seconds())
	}
	fmt.Printf("setup_s: %.4f s (median of %s)\n", res.e2e["setup_s"], strings.Join(secs, ", "))
	fmt.Printf("store_mb: %.4f MiB (%d blocks in use after set-up)\n", res.e2e["store_mb"], setups[0].blocksInUse)
}

// finish fills the figures read after the run: blocks in use and live heap.
func finish(res *result, g *graphDB) {
	blocks := g.blocksInUse()
	res.layer["store.blocks_in_use"] = float64(blocks)
	res.e2e["heap_mb"] = liveHeapMiB()
	runtime.KeepAlive(g) // the database is part of the live heap
	fmt.Printf("store.blocks_in_use: %d after the run\n", blocks)
	fmt.Printf("heap_mb: %.4f MiB\n", res.e2e["heap_mb"])
}

// latencyMetrics fills the op-level figures from raw samples.
func latencyMetrics(res *result, all latencies) {
	s := all.sorted()
	p50, tail := s.at(0.5), s.tail()
	res.e2e["p50_us"] = float64(p50.ns) / 1e3
	res.e2e["tail_us"] = float64(tail.ns) / 1e3
	fmt.Println("p50_us:", p50.describe("us", 1e3))
	fmt.Println("tail_us:", tail.describe("us", 1e3))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fabricMetrics(res *result, t gdi.TrafficSnapshot, ops float64) {
	res.layer["fabric.trains_per_op"] = ratio(float64(t.GetBatches+t.PutBatches+t.AtomicBatches), ops)
	res.layer["fabric.remote_ops_per_op"] = ratio(float64(t.RemoteOps()), ops)
	res.layer["fabric.bytes_per_op"] = ratio(float64(t.BytesGot+t.BytesPut), ops)
}

// saveTrace writes the retained spans under .bench_build/traces.
func saveTrace(o opts, tracers []*tracer) {
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", o.workload, o.seed)
	if err := writeTrace(path, tracers); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing trace:", err)
		return
	}
	fmt.Println("trace:", path)
}

// printConfig records the run's configuration: seed, workload shape,
// database parameters, source identity, nproc and Go version.
func printConfig(o opts, spec workloadSpec) {
	cfg := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"why": spec.why, "scale": spec.scale, "ranks": spec.ranks,
		"edge_factor": edgeFactor, "labels": numLabels, "props": numProps,
		"remote_latency_ns": remoteLatencyNs, "block_size": blockSize, "holder_codec": "v2",
		"cache_blocks": true, "cache_capacity": cacheCapacity, "optimistic_reads": true,
		"dense_analytics": true, "scalar_commit": false, "setup_repeats": setupRepeats,
	}
	if spec.sessions > 0 {
		cfg["clients"] = spec.sessions
	}
	for k, v := range sourceIdentity() {
		cfg[k] = v
	}
	b, _ := json.Marshal(cfg) // a map of plain values always marshals
	fmt.Println("config:", string(b))
}
