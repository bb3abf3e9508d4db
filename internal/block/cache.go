package block

import (
	"container/list"
	"fmt"
	"sync"

	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/locks"
)

// The remote-block cache of the optimistic read tier (§3.8, §5.2): each rank
// keeps version-stamped local copies of remote blocks it has fetched, and
// revalidates them with a single vectored atomic-load train over the guard
// lock words instead of re-fetching the payloads. A cached copy is current
// exactly while its guard word still carries the stamped version with the
// write bit clear — writers bump the version at write-unlock, which is the
// entire invalidation protocol: no invalidation messages, no coherence
// directory, just the lock word every transaction already touches.
//
// Entries are keyed by block DPtr and tagged with the guard block (the
// holder primary whose lock word protects the content). Only vertex-holder
// blocks are cached: their content changes exclusively under the primary's
// write lock, so the version stamp is authoritative. Edge holders are
// mutated under their *endpoints'* locks and therefore bypass the cache.
// Local blocks are never cached (a local read costs no remote latency).

// cacheEntry is one version-stamped block copy.
type cacheEntry struct {
	dp      fabric.DPtr
	guard   fabric.DPtr // holder primary whose lock word stamps this copy
	ver     uint64      // guard version the payload corresponds to
	payload []byte
}

// blockCache is one rank's LRU cache. A rank may run many concurrent
// workers, so access is serialized with a mutex; the protected section only
// copies block-sized payloads.
type blockCache struct {
	mu  sync.Mutex
	cap int
	m   map[fabric.DPtr]*list.Element
	lru *list.List // front = most recently used; values are *cacheEntry
}

func newBlockCache(capacity int) *blockCache {
	return &blockCache{
		cap: capacity,
		m:   make(map[fabric.DPtr]*list.Element, capacity),
		lru: list.New(),
	}
}

// lookup copies dp's cached payload into dst when an entry with the given
// guard exists and is large enough, returning its stamped version. The
// caller decides validity by comparing ver against the guard word.
func (c *blockCache) lookup(dp, guard fabric.DPtr, dst []byte) (ver uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[dp]
	if !found {
		return 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.guard != guard || len(e.payload) < len(dst) {
		return 0, false
	}
	c.lru.MoveToFront(el)
	copy(dst, e.payload)
	return e.ver, true
}

// install stores a validated copy, evicting from the LRU tail under capacity
// pressure. An existing entry for dp is replaced.
func (c *blockCache) install(dp, guard fabric.DPtr, ver uint64, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[dp]; found {
		e := el.Value.(*cacheEntry)
		e.guard, e.ver = guard, ver
		e.payload = append(e.payload[:0], payload...)
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.m, tail.Value.(*cacheEntry).dp)
	}
	e := &cacheEntry{dp: dp, guard: guard, ver: ver, payload: append([]byte(nil), payload...)}
	c.m[dp] = c.lru.PushFront(e)
}

// invalidate drops dp's entry, if any.
func (c *blockCache) invalidate(dp fabric.DPtr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[dp]; found {
		c.lru.Remove(el)
		delete(c.m, dp)
	}
}

func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cacheOf returns origin's cache, or nil when caching is disabled.
func (s *Store) cacheOf(origin fabric.Rank) *blockCache {
	if s.caches == nil {
		return nil
	}
	return s.caches[origin]
}

// CacheEnabled reports whether the store runs with a block cache.
func (s *Store) CacheEnabled() bool { return s.caches != nil }

// CacheLen returns the number of entries in rank r's cache (diagnostics and
// tests).
func (s *Store) CacheLen(r fabric.Rank) int {
	if c := s.cacheOf(r); c != nil {
		return c.len()
	}
	return 0
}

// invalidateCached drops origin's cached copy of dp after a write or a block
// release. This is local hygiene, not the coherence protocol: other ranks'
// stale copies are rejected by version validation, and so would ours — but a
// writer knows its own copies are dead and need not wait for a failed
// revalidation to find out.
func (s *Store) invalidateCached(origin fabric.Rank, dp fabric.DPtr) {
	if c := s.cacheOf(origin); c != nil {
		c.invalidate(dp)
	}
}

// LockStamps reads the lock words guarding the given blocks — one vectored
// atomic-load train per distinct owner rank — and returns the raw words
// aligned with dps. Interpret them with locks.Version and locks.WriteHeld.
// This is the "CAS-free word train": revalidating any number of cached
// holders on one rank costs a single remote round-trip.
func (s *Store) LockStamps(origin fabric.Rank, dps []fabric.DPtr) []uint64 {
	words, _ := s.LockAndEpochStamps(origin, dps, nil)
	return words
}

// LockAndEpochStamps is LockStamps plus the stub epoch words (EpochWord) of
// the given ranks, folded into the same per-rank load trains: a commit
// revalidating both costs no extra round-trip. The second result is aligned
// with epochs.
func (s *Store) LockAndEpochStamps(origin fabric.Rank, dps []fabric.DPtr, epochs []fabric.Rank) (words, epochWords []uint64) {
	words = make([]uint64, len(dps))
	epochWords = make([]uint64, len(epochs))
	// target -> positions: i < len(dps) names dps[i], else epochs[i-len(dps)].
	byTarget := make(map[fabric.Rank][]int)
	for i, dp := range dps {
		s.checkDPtr(dp)
		byTarget[dp.Rank()] = append(byTarget[dp.Rank()], i)
	}
	for i, r := range epochs {
		byTarget[r] = append(byTarget[r], len(dps)+i)
	}
	for t, pos := range byTarget {
		idxs := make([]int, len(pos))
		for j, i := range pos {
			if i < len(dps) {
				idxs[j] = 1 + int(dps[i].Off())
			} else {
				_, _, idxs[j] = s.EpochWord(t)
			}
		}
		for j, w := range s.sys.LoadBatch(origin, t, idxs) {
			if i := pos[j]; i < len(dps) {
				words[i] = w
			} else {
				epochWords[i-len(dps)] = w
			}
		}
	}
	return words, epochWords
}

// LockStamp loads the single lock word guarding dp — the scalar form of
// LockStamps for the one-holder optimistic point read, whose steady-state
// path must not allocate (LockStamps builds per-target batch maps).
func (s *Store) LockStamp(origin fabric.Rank, dp fabric.DPtr) uint64 {
	s.checkDPtr(dp)
	return s.sys.Load(origin, dp.Rank(), 1+int(dp.Off()))
}

// CachedBlock serves dp from origin's cache into dst when a copy guarded by
// guard exists and is current under the caller's stamp (same version, write
// bit clear) — the scalar, allocation-free form of the cache hit in
// ReadBlocksStamped, including the hit/miss accounting. Returns false when
// caching is off, dp is local, or the copy is missing or stale; the caller
// then fetches and (after establishing stability) installs via InstallCached.
func (s *Store) CachedBlock(origin fabric.Rank, dp, guard fabric.DPtr, stamp uint64, dst []byte) bool {
	c := s.cacheOf(origin)
	if c == nil || dp.Rank() == origin {
		return false
	}
	if ver, found := c.lookup(dp, guard, dst); found && ver == locks.Version(stamp) && !locks.WriteHeld(stamp) {
		s.f.AddCache(origin, 1, 0)
		return true
	}
	s.f.AddCache(origin, 0, 1)
	return false
}

// GuardStamps loads the lock words of the distinct guards into a map, one
// vectored atomic-load train per owner rank. A stamp set is the unit the
// read protocols revalidate against: the transaction layer stamps a whole
// fetch's guards once and serves every streaming round of every holder
// against the same stamps, instead of paying a stamp train per round.
func (s *Store) GuardStamps(origin fabric.Rank, guards []fabric.DPtr) map[fabric.DPtr]uint64 {
	uniq := make([]fabric.DPtr, 0, len(guards))
	seen := make(map[fabric.DPtr]uint64, len(guards))
	for _, g := range guards {
		if _, dup := seen[g]; !dup {
			seen[g] = 0
			uniq = append(uniq, g)
		}
	}
	for i, w := range s.LockStamps(origin, uniq) {
		seen[uniq[i]] = w
	}
	return seen
}

// ReadBlocksStamped fetches block dps[i] into bufs[i] against the
// caller-provided guard stamps (from GuardStamps): cached copies carrying
// the stamped version with the write bit clear are served locally with no
// GET traffic, and the rest come off the wire as one vectored GET train per
// owner rank.
//
// When install is true the caller guarantees content stability — it holds
// read locks on the guards, or runs in a collective read epoch (§3.3) — so
// fetched blocks are installed into the cache immediately at the stamped
// version. When install is false (the optimistic tier) nothing is
// installed: the caller must establish stability with a post-stamp train
// and then hand the accepted blocks to InstallCached.
//
// Returns fetched[i] = true for blocks that came off the wire (their
// stability is not yet established when install is false).
func (s *Store) ReadBlocksStamped(origin fabric.Rank, dps, guards []fabric.DPtr, bufs [][]byte, stamps map[fabric.DPtr]uint64, install bool) (fetched []bool) {
	if len(dps) != len(guards) || len(dps) != len(bufs) {
		panic(fmt.Sprintf("block: stamped batch of %d DPtrs, %d guards, %d buffers", len(dps), len(guards), len(bufs)))
	}
	n := len(dps)
	fetched = make([]bool, n)
	if n == 0 {
		return fetched
	}
	cache := s.cacheOf(origin)

	missIdx := make([]int, 0, n)
	var hits, misses int64
	for i := range dps {
		w := stamps[guards[i]]
		if cache != nil && dps[i].Rank() != origin {
			if ver, found := cache.lookup(dps[i], guards[i], bufs[i]); found && ver == locks.Version(w) && !locks.WriteHeld(w) {
				hits++
				continue
			}
			misses++
		}
		missIdx = append(missIdx, i)
	}
	if cache != nil {
		s.f.AddCache(origin, hits, misses)
	}
	if len(missIdx) == 0 {
		return fetched
	}
	mdps := make([]fabric.DPtr, len(missIdx))
	mbufs := make([][]byte, len(missIdx))
	for j, i := range missIdx {
		mdps[j] = dps[i]
		mbufs[j] = bufs[i]
		fetched[i] = true
	}
	s.ReadBlocksBatch(origin, mdps, mbufs)
	if install && cache != nil {
		for _, i := range missIdx {
			if dps[i].Rank() != origin {
				cache.install(dps[i], guards[i], locks.Version(stamps[guards[i]]), bufs[i])
			}
		}
	}
	return fetched
}

// InstallCached installs validated copies of one holder's fetched blocks,
// all guarded by guard and stable at version ver. Callers on the optimistic
// tier invoke it after their post-stamp train confirmed the guard did not
// move across the fetch.
func (s *Store) InstallCached(origin fabric.Rank, guard fabric.DPtr, ver uint64, dps []fabric.DPtr, bufs [][]byte) {
	cache := s.cacheOf(origin)
	if cache == nil {
		return
	}
	for i, dp := range dps {
		if dp.Rank() != origin {
			cache.install(dp, guard, ver, bufs[i])
		}
	}
}

// ReadBlocksCached is the self-contained, one-call form of the stamped read
// protocol (the transaction layer uses the split GuardStamps /
// ReadBlocksStamped / InstallCached primitives directly so one stamp set
// can cover every streaming round of a flush): one stamp train, cache hits
// served locally, misses fetched, and — when locked is false (no read locks
// held, the optimistic tier) — a post-stamp train over the miss guards
// implementing the seqlock double-check: a fetch is accepted and cached
// only if its guard shows the same version with the write bit clear on both
// sides of the read. With locked true the caller guarantees stability (read
// locks or a collective read epoch) and the post-check is elided.
//
// It returns, aligned with dps: the guard version each accepted buffer
// corresponds to, and whether the read was accepted. Rejected reads
// (ok[i] == false, only possible with locked == false) carry torn or moving
// content; the caller must retry or fall back to locking. It works with
// caching disabled, degenerating to validated (but uncached) batch reads.
func (s *Store) ReadBlocksCached(origin fabric.Rank, dps, guards []fabric.DPtr, bufs [][]byte, locked bool) (vers []uint64, ok []bool) {
	if len(dps) != len(guards) || len(dps) != len(bufs) {
		panic(fmt.Sprintf("block: cached batch of %d DPtrs, %d guards, %d buffers", len(dps), len(guards), len(bufs)))
	}
	n := len(dps)
	vers = make([]uint64, n)
	ok = make([]bool, n)
	if n == 0 {
		return vers, ok
	}
	stamps := s.GuardStamps(origin, guards)
	fetched := s.ReadBlocksStamped(origin, dps, guards, bufs, stamps, locked)

	post := stamps
	if !locked {
		var missGuards []fabric.DPtr
		for i := range dps {
			if fetched[i] {
				missGuards = append(missGuards, guards[i])
			}
		}
		if len(missGuards) > 0 {
			post = s.GuardStamps(origin, missGuards)
		}
	}
	for i := range dps {
		pre := stamps[guards[i]]
		if !fetched[i] {
			// Cache hits were validated against the stamp at lookup time.
			vers[i], ok[i] = locks.Version(pre), true
			continue
		}
		if !locked {
			po := post[guards[i]]
			if locks.WriteHeld(pre) || locks.WriteHeld(po) || locks.Version(pre) != locks.Version(po) {
				continue // torn or moving: rejected, not cached
			}
			s.InstallCached(origin, guards[i], locks.Version(pre), dps[i:i+1], bufs[i:i+1])
		}
		vers[i], ok[i] = locks.Version(pre), true
	}
	return vers, ok
}
