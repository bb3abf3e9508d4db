package core

import (
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/locks"
)

// Stub epochs. A live migration leaves a forwarding stub at the vacated
// primary, so a DPtr held in an edge record may name a stub whose vertex now
// lives at a different, possibly lower-ordered, DPtr. Code that decides what
// NOT to read from the ordering of DPtrs (the query layer's LIMIT pushdown)
// is only exact while no candidate is a stub. Every rank therefore carries a
// stub epoch word (block.Store.EpochWord, the lock word of the
// never-allocated block 0):
//
//   - MigrateVertices write-locks the epoch word of every rank it publishes
//     a stub on, in the same secondary lock train as the stub words; the
//     release bumps its version. A rank whose epoch shows version 0 with the
//     write bit clear has never hosted a stub.
//   - Non-quietness is monotonic: once a migration holds the word, it stays
//     write-held until the release bumps the version, and versions never
//     return to 0. So a migration that finds the word already non-quiet
//     needs no lock of its own, and this process remembers every rank it has
//     seen non-quiet (Engine.stubEpochs) and never loads or locks that word
//     again.
//   - Tx.NoMigrationStubs reads every rank's word once and keeps the verdict
//     true up to the transaction's serialization point: a locking
//     transaction read-locks the words until it closes (so a migration
//     cannot flip them meanwhile), and an optimistic one revalidates them at
//     commit in the same trains as its vertex versions; there a write-held
//     epoch fails too, since the migration holding it may have published.

// epochWord addresses rank r's stub epoch word.
func (e *Engine) epochWord(r fabric.Rank) locks.Word {
	win, target, idx := e.store.EpochWord(r)
	return locks.Word{Win: win, Target: target, Idx: idx}
}

// epochQuiet reports whether a raw epoch word proves its rank stub-free.
// Reader counts are ignored: locking transactions read-lock the word.
func epochQuiet(w uint64) bool { return locks.Version(w) == 0 && !locks.WriteHeld(w) }

// noteEpochs records which of the loaded epoch words (aligned with ranks)
// carry a bumped version and reports whether all of them are quiet.
func (e *Engine) noteEpochs(ranks []fabric.Rank, words []uint64) bool {
	quiet := true
	for i, w := range words {
		if locks.Version(w) != 0 {
			e.stubEpochs[ranks[i]].Store(true)
		}
		if !epochQuiet(w) {
			quiet = false
		}
	}
	return quiet
}

// stubsSeen reports whether this process has seen some rank's epoch bumped.
func (e *Engine) stubsSeen() bool {
	for i := range e.stubEpochs {
		if e.stubEpochs[i].Load() {
			return true
		}
	}
	return false
}

// allRanks lists every rank of the fabric in order.
func (e *Engine) allRanks() []fabric.Rank {
	out := make([]fabric.Rank, e.fab.Size())
	for i := range out {
		out[i] = fabric.Rank(i)
	}
	return out
}

// stubVerdict caches a transaction's NoMigrationStubs answer.
type stubVerdict uint8

const (
	stubsUnchecked stubVerdict = iota
	stubsNone                  // every epoch quiet, held in the read set
	stubsPossible              // some epoch was not quiet, or could not be read-locked
)

// NoMigrationStubs reports whether no rank hosts a live-migration forwarding
// stub, so that every DPtr names its vertex's current primary, and keeps a
// true answer true up to the transaction's serialization point. It reads
// every rank's stub epoch word once per transaction and puts the words in
// the read set: a locking transaction read-locks them until it closes
// (migrations touching those ranks are skipped meanwhile), an optimistic one
// revalidates them at commit and fails with ErrTxCritical if a migration
// published a stub since, and a collective read-only transaction only reads
// them (§3.3: no concurrent writers). A false answer costs nothing further:
// the words stay out of the read set. Once this process has seen any
// epoch bumped, the answer is false with no traffic at all.
func (tx *Tx) NoMigrationStubs() (bool, error) {
	if err := tx.check(); err != nil {
		return false, err
	}
	if tx.stubs != stubsUnchecked {
		return tx.stubs == stubsNone, nil
	}
	tx.stubs = stubsPossible
	e := tx.eng
	if e.stubsSeen() {
		return false, nil
	}
	ranks := e.allRanks()
	var held []locks.Word
	if !tx.skipLocks() && !tx.optimistic() {
		held = make([]locks.Word, len(ranks))
		for i, r := range ranks {
			held[i] = e.epochWord(r)
		}
		// A word a migration holds right now cannot be read-locked; that
		// migration is publishing a stub, so the answer is false anyway.
		if locks.AcquireReadTrain(tx.rank, held, e.cfg.LockTries) != nil {
			return false, nil
		}
	}
	_, words := e.store.LockAndEpochStamps(tx.rank, nil, ranks)
	if !e.noteEpochs(ranks, words) {
		locks.ReleaseReadTrain(tx.rank, held)
		return false, nil
	}
	tx.stubs = stubsNone
	tx.stubLocks = held
	return true, nil
}

// releaseStubLocks drops the epoch read locks of a locking transaction.
func (tx *Tx) releaseStubLocks() {
	locks.ReleaseReadTrain(tx.rank, tx.stubLocks)
	tx.stubLocks = nil
}
