package dht

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gdi-go/gdi/internal/rma"
)

// TestLookupBatchMatchesScalar: LookupBatch answers every input position
// exactly as a scalar Lookup of the same key does, over present, absent and
// duplicate keys, with long chains and a heap that has recycled slots.
func TestLookupBatchMatchesScalar(t *testing.T) {
	for _, ranks := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			m := newMap(ranks, 4, 1024)
			rng := rand.New(rand.NewSource(int64(ranks)))
			for k := uint64(0); k < 600; k++ {
				if !m.Insert(rma.Rank(rng.Intn(ranks)), k, k*7+1) {
					t.Fatalf("insert %d failed", k)
				}
			}
			for k := uint64(0); k < 600; k += 3 { // recycle a third of the slots
				if !m.Delete(rma.Rank(rng.Intn(ranks)), k) {
					t.Fatalf("delete %d failed", k)
				}
			}
			for k := uint64(1000); k < 1100; k++ {
				m.Insert(0, k, k)
			}
			var keys []uint64
			for i := 0; i < 2000; i++ {
				keys = append(keys, uint64(rng.Intn(1300))) // present, deleted, never inserted, repeated
			}
			keys = append(keys, keys[:50]...)
			for origin := 0; origin < ranks; origin++ {
				vals, found := m.LookupBatch(rma.Rank(origin), keys)
				if len(vals) != len(keys) || len(found) != len(keys) {
					t.Fatalf("LookupBatch returned %d values and %d flags for %d keys", len(vals), len(found), len(keys))
				}
				for i, k := range keys {
					v, ok := m.Lookup(rma.Rank(origin), k)
					if found[i] != ok || vals[i] != v {
						t.Fatalf("origin %d, key %d at %d: batch (%d, %v), scalar (%d, %v)", origin, k, i, vals[i], found[i], v, ok)
					}
				}
			}
			if vals, found := m.LookupBatch(0, nil); len(vals) != 0 || len(found) != 0 {
				t.Fatal("LookupBatch of no keys returned results")
			}
		})
	}
}

// TestLookupBatchConcurrentWriters: readers batch-look-up keys on a few long
// chains while writers insert, delete and replace on the same chains, so
// tombstone unlinks and slot recycling happen in the middle of a batch's
// walk. A key that is never deleted is always found, with a value its
// writer allowed; a key that was never inserted is never found.
func TestLookupBatchConcurrentWriters(t *testing.T) {
	const (
		ranks   = 4
		stable  = 64  // keys 0..63: inserted once, values swing between 2k and 2k+1
		churn   = 32  // keys 1000..1031: inserted and deleted over and over
		absent  = 32  // keys 5000..5031: never inserted
		rounds  = 300 // writer iterations
		readers = 2
	)
	m := newMap(ranks, 1, 4096) // one bucket per rank: chains of ~25 entries
	for k := uint64(0); k < stable; k++ {
		if !m.Insert(rma.Rank(k%ranks), k, 2*k) {
			t.Fatal("insert failed")
		}
	}
	var keys []uint64
	for k := uint64(0); k < stable; k++ {
		keys = append(keys, k, k) // duplicates ride along
	}
	for k := uint64(0); k < churn; k++ {
		keys = append(keys, 1000+k)
	}
	for k := uint64(0); k < absent; k++ {
		keys = append(keys, 5000+k)
	}

	var stop atomic.Bool
	var writers, readersWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			origin := rma.Rank(w)
			for i := 0; i < rounds; i++ {
				for k := uint64(w); k < churn; k += 2 {
					if !m.Insert(origin, 1000+k, 1000+k) {
						t.Error("churn insert failed")
						return
					}
				}
				for k := uint64(w); k < churn; k += 2 {
					if !m.Delete(origin, 1000+k) {
						t.Error("churn delete failed")
						return
					}
				}
				k := uint64(rand.Intn(stable/2)*2 + w) // writers own disjoint stable keys
				cur, _ := m.Lookup(origin, k)
				if !m.Replace(origin, k, cur, cur^1) {
					t.Errorf("swing of stable key %d from %d failed", k, cur)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(origin rma.Rank) {
			defer readersWG.Done()
			for n := 0; n == 0 || !stop.Load(); n++ {
				vals, found := m.LookupBatch(origin, keys)
				for i, k := range keys {
					switch {
					case k < stable && (!found[i] || vals[i]>>1 != k):
						t.Errorf("stable key %d: (%d, %v), want 2k or 2k+1", k, vals[i], found[i])
						return
					case k >= 1000 && k < 1000+churn && found[i] && vals[i] != k:
						t.Errorf("churn key %d: value %d", k, vals[i])
						return
					case k >= 5000 && found[i]:
						t.Errorf("never-inserted key %d found with %d", k, vals[i])
						return
					}
				}
			}
		}(rma.Rank(2 + r))
	}
	writers.Wait()
	stop.Store(true)
	readersWG.Wait()
}

// TestLookupTrainCounts pins the round trips of both lookup paths with the
// exact traffic counters (no latency model).
func TestLookupTrainCounts(t *testing.T) {
	t.Run("scalar-hit-at-head", func(t *testing.T) {
		f := rma.New(2)
		m := New(f, Config{BucketsPerRank: 64, EntriesPerRank: 64})
		key := uint64(1)
		for r, _ := m.bucketOf(key); r != 1; r, _ = m.bucketOf(key) {
			key++
		}
		if !m.Insert(1, key, 99) {
			t.Fatal("insert failed")
		}
		before := f.CounterSnapshot(0)
		if v, ok := m.Lookup(0, key); !ok || v != 99 {
			t.Fatalf("Lookup = (%d, %v)", v, ok)
		}
		d := f.CounterSnapshot(0)
		// One scalar bucket-head Load plus one four-word entry train.
		if atoms, trains := d.RemoteAtoms-before.RemoteAtoms, d.AtomicBatches-before.AtomicBatches; atoms != 5 || trains != 1 {
			t.Fatalf("remote hit at chain position 1: %d remote atomics in %d trains, want 5 in 1", atoms, trains)
		}
		if d.RemoteGets != before.RemoteGets || d.RemotePuts != before.RemotePuts {
			t.Fatal("lookup issued gets or puts")
		}
	})
	t.Run("batch-bounded-by-chain-length", func(t *testing.T) {
		const ranks = 4
		f := rma.New(ranks)
		m := New(f, Config{BucketsPerRank: 8, EntriesPerRank: 1024})
		for k := uint64(0); k < 2048; k++ {
			if !m.Insert(rma.Rank(k%ranks), k, k) {
				t.Fatal("insert failed")
			}
		}
		longest := 0
		for r := 0; r < ranks; r++ {
			for b := 0; b < m.bucketsPer; b++ {
				n := 0
				for p := m.loadNext(0, ref(uint64(r)<<rankShift|uint64(b))); !p.isNull(); p = m.loadNext(0, p) {
					n++
				}
				longest = max(longest, n)
			}
		}
		bound := int64(2 * ranks * (longest + 1))
		for _, k := range []int{1, 16, 256, 2048, 4096} {
			keys := make([]uint64, k)
			for i := range keys {
				keys[i] = uint64(i) // the upper half is absent
			}
			before := f.CounterSnapshot(0)
			m.LookupBatch(0, keys)
			if trains := f.CounterSnapshot(0).AtomicBatches - before.AtomicBatches; trains > bound {
				t.Errorf("LookupBatch of %d keys: %d atomic trains, bound 2*%d*(%d+1) = %d", k, trains, ranks, longest, bound)
			}
		}
	})
}

// TestRecycledSlotTagWraps: a slot recycled past the 15-bit reuse tag keeps
// working. The tag word counts every recycle while a ref keeps only the low
// 15 bits, so comparing the full word would make every later walk over the
// slot restart forever.
func TestRecycledSlotTagWraps(t *testing.T) {
	m := newMap(1, 1, 1) // one slot, recycled by every insert
	for i := 0; i < 1<<15+2; i++ {
		if !m.Insert(0, 5, uint64(i)) {
			t.Fatalf("insert %d failed", i)
		}
		if v, ok := m.Lookup(0, 5); !ok || v != uint64(i) {
			t.Fatalf("recycle %d: Lookup = (%d, %v)", i, v, ok)
		}
		if !m.Delete(0, 5) {
			t.Fatalf("delete %d failed", i)
		}
	}
}

// BenchmarkLookupAblation resolves 4096 keys from one rank at 8 ranks and
// 1 µs injected remote latency: scalar, one Lookup per key (a bucket-head
// round trip plus one entry train per chain hop), against batched, one
// LookupBatch (a bucket-head train and an entry train per rank per round).
// The batched walk must win by at least 2x.
func BenchmarkLookupAblation(b *testing.B) {
	const ranks, nKeys = 8, 4096
	f := rma.New(ranks, rma.Options{Latency: rma.Latency{RemoteNs: 1000}})
	m := New(f, Config{BucketsPerRank: nKeys / ranks, EntriesPerRank: nKeys})
	keys := make([]uint64, nKeys)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	f.Run(func(r rma.Rank) {
		for i := int(r); i < nKeys; i += ranks {
			if !m.Insert(r, keys[i], uint64(i)) {
				b.Error("insert failed")
			}
		}
	})
	run := func(b *testing.B, lookup func() int) {
		before := f.CounterSnapshot(0)
		for i := 0; i < b.N; i++ {
			if hits := lookup(); hits != nKeys {
				b.Fatalf("%d of %d keys found", hits, nKeys)
			}
		}
		b.ReportMetric(float64(f.CounterSnapshot(0).AtomicBatches-before.AtomicBatches)/float64(b.N), "trains/op")
	}
	b.Run("scalar", func(b *testing.B) {
		run(b, func() (hits int) {
			for _, k := range keys {
				if _, ok := m.Lookup(0, k); ok {
					hits++
				}
			}
			return hits
		})
	})
	b.Run("batched", func(b *testing.B) {
		run(b, func() (hits int) {
			_, found := m.LookupBatch(0, keys)
			for _, ok := range found {
				if ok {
					hits++
				}
			}
			return hits
		})
	})
}
