package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	gdi "github.com/gdi-go/gdi"
)

// kind names one layer boundary the benchmark times from outside: every span
// sits in this package, around a call into gdi, internal/query or
// internal/analytics.
type kind uint8

const (
	kOp kind = iota
	kTranslate
	kAssociate
	kDecodeEdges
	kDecodeProp
	kMutate
	kQuery
	kCommitRO
	kCommitRW
	kBFS
	kPageRank
	kWCC
	numKinds
)

var kindNames = [numKinds]string{
	kOp:          "op",
	kTranslate:   "dht.translate",
	kAssociate:   "fetch.associate",
	kDecodeEdges: "decode.edges",
	kDecodeProp:  "decode.property",
	kMutate:      "mutate",
	kQuery:       "query.run",
	kCommitRO:    "commit.ro",
	kCommitRW:    "commit.rw",
	kBFS:         "analytics.bfs",
	kPageRank:    "analytics.pagerank",
	kWCC:         "analytics.wcc",
}

// span is one retained trace record. Times are nanoseconds since the run's
// base time; parent indexes the same tracer's span list (-1 for a root or a
// parent that was not retained).
type span struct {
	kind       kind
	parent     int32
	op         uint32
	start, end int64
}

// layerStats aggregates every span of one kind, retained or not: calls,
// failures, items handled (edges decoded, rows returned), self time, and the
// traffic the caller's rank issued inside the span.
type layerStats struct {
	calls, fails, items int64
	selfNs              int64
	traffic             gdi.TrafficSnapshot
}

func (a *layerStats) merge(b layerStats) {
	a.calls += b.calls
	a.fails += b.fails
	a.items += b.items
	a.selfNs += b.selfNs
	a.traffic.Add(b.traffic)
}

type openSpan struct {
	kind    kind
	idx     int32
	start   int64
	childNs int64
	snap    gdi.TrafficSnapshot
}

// maxRetainedSpans bounds the spans one tracer keeps for the trace file;
// aggregates cover every span regardless.
const maxRetainedSpans = 1 << 15

// tracer records the spans of one session. A session is the only one on its
// rank, so the rank's counter deltas across a span are exactly the span's
// traffic. A nil tracer records nothing, which is how untraced runs pay
// nothing but a nil check.
type tracer struct {
	base  time.Time
	fab   gdi.Transport
	rank  gdi.Rank
	op    uint32
	stack []openSpan
	spans []span
	agg   [numKinds]layerStats
}

func newTracer(base time.Time, fab gdi.Transport, rank gdi.Rank) *tracer {
	return &tracer{base: base, fab: fab, rank: rank}
}

func (t *tracer) begin(k kind) {
	if t == nil {
		return
	}
	if k == kOp {
		t.op++
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	now := int64(time.Since(t.base))
	idx := int32(-1)
	if len(t.spans) < maxRetainedSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: k, parent: parent, op: t.op, start: now})
	}
	t.stack = append(t.stack, openSpan{kind: k, idx: idx, start: now, snap: t.fab.CounterSnapshot(t.rank)})
}

// end closes the innermost span; items counts what the call handled.
func (t *tracer) end(items int64, failed bool) {
	if t == nil {
		return
	}
	snap := t.fab.CounterSnapshot(t.rank)
	now := int64(time.Since(t.base))
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - o.start
	a := &t.agg[o.kind]
	a.calls++
	a.items += items
	a.selfNs += d - o.childNs
	if failed {
		a.fails++
	}
	a.traffic.Add(diff(snap, o.snap))
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
}

// diff returns a - b field by field.
func diff(a, b gdi.TrafficSnapshot) gdi.TrafficSnapshot {
	return gdi.TrafficSnapshot{
		LocalPuts: a.LocalPuts - b.LocalPuts, RemotePuts: a.RemotePuts - b.RemotePuts,
		LocalGets: a.LocalGets - b.LocalGets, RemoteGets: a.RemoteGets - b.RemoteGets,
		LocalAtomics: a.LocalAtomics - b.LocalAtomics, RemoteAtoms: a.RemoteAtoms - b.RemoteAtoms,
		BytesPut: a.BytesPut - b.BytesPut, BytesGot: a.BytesGot - b.BytesGot,
		Flushes: a.Flushes - b.Flushes, GetBatches: a.GetBatches - b.GetBatches,
		PutBatches: a.PutBatches - b.PutBatches, AtomicBatches: a.AtomicBatches - b.AtomicBatches,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
	}
}

// mergeAgg sums the aggregates of several tracers.
func mergeAgg(ts []*tracer) [numKinds]layerStats {
	var out [numKinds]layerStats
	for _, t := range ts {
		for k := range out {
			out[k].merge(t.agg[k])
		}
	}
	return out
}

// writeTrace writes the retained spans of every tracer as JSON lines, one
// span per line, tagged with the session (client or rank) that recorded it.
func writeTrace(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for s, t := range ts {
		for _, sp := range t.spans {
			fmt.Fprintf(w, `{"session":%d,"name":%q,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s, kindNames[sp.kind], sp.op, sp.parent, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
