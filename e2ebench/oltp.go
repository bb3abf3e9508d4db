package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/kron"
)

// Latency classes of the OLTP workloads.
const (
	classRead = iota
	classWrite
	classHop2
	numClasses
)

// outcome is where an op ended.
type outcome int

const (
	opOK outcome = iota
	opFailedRead
	opFailedCommit
)

// commitError marks an error returned by Transaction.Commit, so that
// commit-time aborts can be told from aborts on the read path.
type commitError struct{ err error }

func (e commitError) Error() string { return e.err.Error() }
func (e commitError) Unwrap() error { return e.err }

// maxAttempts bounds how often one op is run after aborts; an op that aborts
// on every attempt counts as failed. Between attempts the client backs off,
// doubling from 2 µs up to maxBackoff, so that a writer holding a lock for
// longer than the lock layer's bounded spin (a commit descheduled by the Go
// runtime or the host) can finish before the next attempt.
const (
	maxAttempts = 64
	maxBackoff  = 2 * time.Millisecond
)

// classify maps an op's error to its outcome. Not-found lookups are
// successful no-ops, as in internal/workload; any error other than a
// transaction-critical abort is a fault that ends the run.
func classify(err error) (outcome, error) {
	switch {
	case err == nil, errors.Is(err, gdi.ErrNotFound):
		return opOK, nil
	case errors.Is(err, gdi.ErrTransactionCritical):
		if errors.As(err, new(commitError)) {
			return opFailedCommit, nil
		}
		return opFailedRead, nil
	default:
		return opOK, err
	}
}

// session is one closed-loop client bound to its own rank: it issues its
// next op when the last one returns.
type session struct {
	p   *gdi.Process
	sch kron.Schema
	rng *rand.Rand
	tr  *tracer
	// do runs one op and returns its latency class.
	do func(s *session) (int, error)
	// Vertex-level writes (insert, delete, property update) of a session
	// touch only appIDs no other session writes: generated appIDs congruent
	// to its rank modulo the session count and fresh appIDs it inserted. So
	// the session alone knows what each such vertex must hold after the run.
	keySpace  uint64
	sessions  int
	nextFresh uint64
	// live holds the appIDs this session inserted and has not deleted;
	// deletes draw from it. Deletes of generated vertices would drain the
	// hubs' edge lists as the run goes on, so a run's figures would depend
	// on how many ops it managed: on a 2-vCPU host LinkBench throughput
	// climbed from 19k to 34k ops/s over 30 s while hub deletes took about
	// half the clients' time.
	live    []uint64
	written map[uint64]vertexWrite
	// abortsRead and abortsCommit count the aborted attempts that retry
	// re-ran, by where ErrTransactionCritical surfaced.
	abortsRead, abortsCommit int64
}

// retry runs one op's transaction until it commits, as a closed-loop client
// does: an abort (ErrTransactionCritical) re-runs it with the same keys
// after a back-off, at most maxAttempts times in all. The op's latency
// includes every attempt and back-off.
func (s *session) retry(tx func() error) error {
	for attempt := 1; ; attempt++ {
		err := tx()
		if !errors.Is(err, gdi.ErrTransactionCritical) || attempt == maxAttempts {
			return err
		}
		if errors.As(err, new(commitError)) {
			s.abortsCommit++
		} else {
			s.abortsRead++
		}
		time.Sleep(min(time.Microsecond<<min(attempt, 11), maxBackoff))
	}
}

// vertexWrite is the last committed vertex-level write of one appID.
type vertexWrite struct {
	deleted bool
	label   gdi.LabelID
	age     uint64
}

// own maps a uniform key onto this session's share of the key space.
func (s *session) own(app uint64) uint64 {
	return app - app%uint64(s.sessions) + uint64(s.p.Rank())
}

// insertApp returns the appID the next insert creates: a fresh one above the
// key space.
func (s *session) insertApp() uint64 {
	app := s.keySpace + s.nextFresh*uint64(s.sessions) + uint64(s.p.Rank()) + 1
	s.nextFresh++
	return app
}

// deleteApp returns the appID the next delete removes: a uniformly drawn
// vertex this session inserted, or, before it has inserted any, a fresh
// appID, whose delete is a not-found no-op.
func (s *session) deleteApp() uint64 {
	if len(s.live) == 0 {
		return s.insertApp()
	}
	return s.live[s.rng.Intn(len(s.live))]
}

// inserted records a committed insert of app.
func (s *session) inserted(app uint64, label gdi.LabelID, age uint64) {
	s.live = append(s.live, app)
	s.written[app] = vertexWrite{label: label, age: age}
}

// deleted records a committed delete of app.
func (s *session) deleted(app uint64) {
	i := slices.Index(s.live, app)
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	s.written[app] = vertexWrite{deleted: true}
}

func (s *session) translate(tx *gdi.Transaction, app uint64) (gdi.VertexID, error) {
	s.tr.begin(kTranslate)
	id, err := tx.TranslateVertexID(app)
	s.tr.end(0, err != nil)
	return id, err
}

func (s *session) associate(tx *gdi.Transaction, id gdi.VertexID) (*gdi.Vertex, error) {
	s.tr.begin(kAssociate)
	h, err := tx.AssociateVertex(id)
	s.tr.end(0, err != nil)
	return h, err
}

// lookup translates app and associates its vertex.
func (s *session) lookup(tx *gdi.Transaction, app uint64) (*gdi.Vertex, error) {
	id, err := s.translate(tx, app)
	if err != nil {
		return nil, err
	}
	return s.associate(tx, id)
}

// mutate times one mutation call.
func (s *session) mutate(f func() error) error {
	s.tr.begin(kMutate)
	err := f()
	s.tr.end(0, err != nil)
	return err
}

func (s *session) commit(tx *gdi.Transaction) error {
	k := kCommitRO
	if tx.Mode() == gdi.ReadWrite {
		k = kCommitRW
	}
	s.tr.begin(k)
	err := tx.Commit()
	s.tr.end(0, err != nil)
	if err != nil {
		return commitError{err}
	}
	return nil
}

// window is what one measured window of the closed loop observed. failed*
// count the ops that aborted on every attempt, aborts* the aborted attempts
// that were retried, each by where ErrTransactionCritical surfaced.
type window struct {
	elapsed                  time.Duration
	attempted                int64
	failedRead, failedCommit int64
	abortsRead, abortsCommit int64
	lat                      [numClasses]latencies
	traffic                  gdi.TrafficSnapshot
	allocBytes, gcCycles     uint64
}

// add accumulates another window into w.
func (w *window) add(o *window) {
	w.elapsed += o.elapsed
	w.attempted += o.attempted
	w.failedRead += o.failedRead
	w.failedCommit += o.failedCommit
	w.abortsRead += o.abortsRead
	w.abortsCommit += o.abortsCommit
	for c := range w.lat {
		w.lat[c] = append(w.lat[c], o.lat[c]...)
	}
	w.traffic.Add(o.traffic)
	w.allocBytes += o.allocBytes
	w.gcCycles += o.gcCycles
}

func (w *window) ok() int64 { return w.attempted - w.failedRead - w.failedCommit }

func (w *window) opsPerSec() float64 { return float64(w.ok()) / w.elapsed.Seconds() }

// all returns every successful op's latency.
func (w *window) all() latencies {
	var out latencies
	for _, l := range w.lat {
		out = append(out, l...)
	}
	return out
}

// runWindow drives every session in a closed loop for d and returns what it
// saw. A fault other than an abort stops the loop and is returned.
func runWindow(g *graphDB, sessions []*session, d time.Duration) (*window, error) {
	fab := g.rt.Transport()
	before := fab.TotalSnapshot()
	alloc0, gc0 := readGoMetrics()
	parts := make([]window, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, s := range sessions {
		wg.Add(1)
		go func(pt *window, perr *error, s *session) {
			defer wg.Done()
			r0, c0 := s.abortsRead, s.abortsCommit
			defer func() { pt.abortsRead, pt.abortsCommit = s.abortsRead-r0, s.abortsCommit-c0 }()
			for time.Now().Before(deadline) {
				s.tr.begin(kOp)
				t0 := time.Now()
				class, err := s.do(s)
				ns := time.Since(t0).Nanoseconds()
				out, hard := classify(err)
				s.tr.end(0, out != opOK)
				if hard != nil {
					*perr = hard
					return
				}
				pt.attempted++
				switch out {
				case opOK:
					pt.lat[class] = append(pt.lat[class], ns)
				case opFailedRead:
					pt.failedRead++
				case opFailedCommit:
					pt.failedCommit++
				}
			}
		}(&parts[i], &errs[i], s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	alloc1, gc1 := readGoMetrics()
	w := &window{}
	for i := range parts {
		w.add(&parts[i])
	}
	w.elapsed = elapsed
	w.allocBytes, w.gcCycles = alloc1-alloc0, gc1-gc0
	w.traffic = diff(fab.TotalSnapshot(), before)
	if err := errors.Join(errs...); err != nil {
		return w, fmt.Errorf("op fault: %w", err)
	}
	return w, nil
}

// readGoMetrics returns the cumulative heap allocation in bytes and the
// completed GC cycles.
func readGoMetrics() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMiB forces a GC and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runOLTP(o opts, spec workloadSpec, chk *checker) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	g, setups, err := setUpRepeated(spec.scale, spec.ranks, o.seed, chk)
	if err != nil {
		return nil, err
	}
	setupMetrics(res, setups, g.kc.NumEdges())
	keySpace := g.kc.NumVertices()
	pattern := friendPattern(g.db, g.sch)
	op := linkbenchOp(keySpace)
	if o.workload == "ldbc-interactive" {
		op = ldbcOp(pattern, keySpace)
	}
	sessions := make([]*session, spec.sessions)
	for i := range sessions {
		sessions[i] = &session{
			p:        g.db.Process(gdi.Rank(i)),
			sch:      g.sch,
			rng:      rand.New(rand.NewSource(o.seed*7919 + int64(i))),
			do:       op,
			keySpace: keySpace,
			sessions: spec.sessions,
			written:  map[uint64]vertexWrite{},
		}
	}
	if _, err := runWindow(g, sessions, oltpWarmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if !o.trace {
		w, err := runWindow(g, sessions, time.Duration(o.seconds)*time.Second)
		if err != nil {
			return nil, err
		}
		oltpMetrics(res, w)
	} else {
		w, tw, tracers, err := runTracedSlices(g, sessions, o.seconds)
		if err != nil {
			return nil, err
		}
		oltpMetrics(res, w)
		oltpLayerMetrics(res, w, tw, mergeAgg(tracers))
		saveTrace(o, tracers)
	}

	if o.workload == "ldbc-interactive" {
		checkLDBC(g, sessions, pattern, o.seed, chk)
	} else {
		checkWrites(sessions, chk)
	}
	finish(res, g)
	return res, nil
}

// oltpMetrics fills the end-to-end figures of an untraced OLTP window.
func oltpMetrics(res *result, w *window) {
	res.attempted = w.attempted
	res.failed = w.failedRead + w.failedCommit
	res.e2e["ops_per_s"] = w.opsPerSec()
	fmt.Printf("ops: attempted %d, failed %d (read path %d, commit %d) in %.3f s\n",
		w.attempted, res.failed, w.failedRead, w.failedCommit, w.elapsed.Seconds())
	fmt.Printf("aborted attempts retried: %d (read path %d, commit %d), %.4f per op\n",
		w.abortsRead+w.abortsCommit, w.abortsRead, w.abortsCommit,
		ratio(float64(w.abortsRead+w.abortsCommit), float64(w.attempted)))
	fmt.Printf("ops_per_s: %.3f ops/s\n", res.e2e["ops_per_s"])
	latencyMetrics(res, w.all())
	classMetrics(w)
}

// runTracedSlices alternates one-second untraced and traced slices for
// seconds (at least two slices), so that host drift and the graph's
// evolution under the mix fall on both sides of the tracing-overhead
// comparison alike. It returns the untraced and traced slices summed, and
// the tracers.
func runTracedSlices(g *graphDB, sessions []*session, seconds int) (w, tw *window, tracers []*tracer, err error) {
	base := time.Now()
	tracers = make([]*tracer, len(sessions))
	for i, s := range sessions {
		tracers[i] = newTracer(base, g.rt.Transport(), s.p.Rank())
	}
	w, tw = &window{}, &window{}
	for i := 0; i < max(seconds, 2); i++ {
		traced := i%2 == 1
		for j, s := range sessions {
			s.tr = nil
			if traced {
				s.tr = tracers[j]
			}
		}
		slice, err := runWindow(g, sessions, time.Second)
		if err != nil {
			return nil, nil, nil, err
		}
		if traced {
			tw.add(slice)
		} else {
			w.add(slice)
		}
	}
	for _, s := range sessions {
		s.tr = nil
	}
	return w, tw, tracers, nil
}

// classMetrics prints the per-class latencies of an OLTP window: reads,
// writes and (ldbc-interactive) 2-hop queries, each with its sample count
// and the samples beyond the percentile.
func classMetrics(w *window) {
	names := [numClasses]string{"read", "write", "hop2"}
	for c, l := range w.lat {
		if len(l) == 0 {
			continue
		}
		s := l.sorted()
		unit, scale := "us", 1e3
		if c == classHop2 {
			unit, scale = "ms", 1e6
		}
		for _, q := range []float64{0.5, 0.99} {
			v := s.at(q)
			note := ""
			if v.beyond < 10 {
				note = " [fewer than 10 samples beyond]"
			}
			fmt.Printf("%s_p%g_%s: %s%s\n", names[c], q*100, unit, v.describe(unit, scale), note)
		}
	}
}

// oltpLayerMetrics derives the per-layer figures of an OLTP workload from the
// traced window's span aggregates. Go runtime figures come from the
// untraced slices, which the spans do not perturb.
func oltpLayerMetrics(res *result, w, tw *window, agg [numKinds]layerStats) {
	L := res.layer
	per := func(k kind, v int64) float64 { return ratio(float64(v), float64(agg[k].calls)) }
	us := func(k kind) float64 { return per(k, agg[k].selfNs) / 1e3 }
	ops := float64(tw.attempted)

	L["dht.translate_us"] = us(kTranslate)
	L["dht.translates_per_op"] = ratio(float64(agg[kTranslate].calls), ops)
	L["dht.remote_atomics_per_translate"] = per(kTranslate, agg[kTranslate].traffic.RemoteAtoms)

	a := agg[kAssociate].traffic
	L["fetch.associate_us"] = us(kAssociate)
	L["fetch.remote_gets_per_call"] = per(kAssociate, a.RemoteGets)
	L["fetch.bytes_got_per_call"] = per(kAssociate, a.BytesGot)
	L["fetch.atomic_trains_per_call"] = per(kAssociate, a.AtomicBatches)
	L["cache.hit_ratio"] = ratio(float64(a.CacheHits), float64(a.CacheHits+a.CacheMisses))

	L["decode.edges_us"] = us(kDecodeEdges)
	L["decode.edges_per_call"] = per(kDecodeEdges, agg[kDecodeEdges].items)
	L["decode.property_us"] = us(kDecodeProp)
	L["mutate.us"] = us(kMutate)

	q := agg[kQuery]
	L["query.run_ms"] = us(kQuery) / 1e3
	L["query.rows_per_call"] = per(kQuery, q.items)
	L["query.holders_per_row"] = ratio(float64(q.traffic.CacheHits+q.traffic.RemoteGets+q.traffic.LocalGets), float64(q.items))
	L["query.get_trains_per_call"] = per(kQuery, q.traffic.GetBatches)

	ro, rw := agg[kCommitRO], agg[kCommitRW]
	L["commit.ro_us"] = us(kCommitRO)
	L["commit.ro_atomic_trains"] = per(kCommitRO, ro.traffic.AtomicBatches)
	L["commit.ro_remote_atomics"] = per(kCommitRO, ro.traffic.RemoteAtoms)
	L["commit.rw_us"] = us(kCommitRW)
	L["commit.rw_atomic_trains"] = per(kCommitRW, rw.traffic.AtomicBatches)
	L["commit.rw_put_trains"] = per(kCommitRW, rw.traffic.PutBatches)
	L["commit.rw_bytes_put"] = per(kCommitRW, rw.traffic.BytesPut)
	L["commit.abort_ratio"] = ratio(float64(ro.fails+rw.fails), float64(ro.calls+rw.calls))
	L["tx.abort_at_read_ratio"] = ratio(float64(tw.abortsRead+tw.failedRead), ops)

	fabricMetrics(res, tw.traffic, ops)
	L["go.alloc_bytes_per_op"] = ratio(float64(w.allocBytes), float64(w.attempted))
	L["go.gc_cycles"] = float64(w.gcCycles)
	L["trace.ops_per_s_overhead"] = 1 - ratio(tw.opsPerSec(), w.opsPerSec())
	fmt.Printf("traced slices: %.3f ops/s (untraced %.3f), tracing overhead %.4f\n",
		tw.opsPerSec(), w.opsPerSec(), L["trace.ops_per_s_overhead"])
}
