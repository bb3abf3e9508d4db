package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/rma"
)

// TestLimitPushdownGoldenSweep pins the LIMIT pushdown against the
// unpushed reference: for every source, limits on both sides of the
// pushdown threshold and of the final frontier's size |F| (1, 2, 5, 20,
// |F|-1, |F|, |F|+1), predicates that match most, few, and no final-hop
// vertices, across both holder codecs and replicated stores, Run and
// RunNaive must return bit-identical results.
func TestLimitPushdownGoldenSweep(t *testing.T) {
	all := Hop{Mask: core.MaskAll}
	out := Hop{Mask: core.MaskOut}
	for _, codec := range []holder.Codec{holder.CodecV1, holder.CodecV2} {
		for _, replicas := range []int{1, 3} {
			t.Run(fmt.Sprintf("codec=%v/replicas=%d", codec, replicas), func(t *testing.T) {
				g := newTestGraph(t, 4, codec, replicas, true)
				preds := map[string]*constraint.Constraint{
					"none":          nil,
					"age>=30":       g.ageOver(30),
					"selective":     g.ageOver(80),
					"unsatisfiable": g.ageOver(1000),
				}
				shapes := map[string][]Hop{"2hop-all": {all, all}, "3hop-out": {out, out, out}}
				for shape, hops := range shapes {
					for src := uint64(0); src < graphVerts; src += 5 {
						// |F|: the final frontier, unfiltered and unlimited.
						f := len(runBoth(t, g, g.verts[src], &Pattern{Kind: KHop, Hops: hops}).Rows)
						for _, limit := range []int{1, 2, 5, 20, f - 1, f, f + 1} {
							if limit < 1 {
								continue
							}
							for name, cons := range preds {
								last := len(hops) - 1
								p := &Pattern{Kind: KHop, Hops: slices.Clone(hops), Limit: limit,
									Project: g.age, HasProject: true}
								p.Hops[last].Cons = cons
								t.Run(fmt.Sprintf("%s/src=%d/limit=%d/%s", shape, src, limit, name), func(t *testing.T) {
									runBoth(t, g, g.verts[src], p)
								})
							}
						}
					}
				}
			})
		}
	}
}

// TestLimitPushdownReadsFewerHolders: with the block cache off every
// associated holder costs block GETs, so the GET counters show the pushdown
// reading fewer holders for a LIMIT-5 query than for the same query
// unlimited.
func TestLimitPushdownReadsFewerHolders(t *testing.T) {
	g := newTestGraph(t, 4, holder.CodecV2, 1, false)
	hops := []Hop{{Mask: core.MaskAll}, {Mask: core.MaskAll}}
	gets := func(src fabric.DPtr, limit int) (int64, int) {
		t.Helper()
		before := g.e.Fabric().TotalSnapshot()
		tx := g.e.StartLocal(0, core.ReadOnly)
		res, err := Run(tx, src, &Pattern{Kind: KHop, Hops: hops, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := g.e.Fabric().TotalSnapshot()
		return after.LocalGets + after.RemoteGets - before.LocalGets - before.RemoteGets, len(res.Rows)
	}
	// The source with the widest final frontier.
	src, width := g.verts[0], 0
	for _, dp := range g.verts {
		if _, n := gets(dp, 0); n > width {
			src, width = dp, n
		}
	}
	if width <= 10 {
		t.Fatalf("widest final frontier has %d vertices; the graph cannot show a LIMIT-5 pushdown", width)
	}
	unlimited, _ := gets(src, 0)
	limited, rows := gets(src, 5)
	if rows != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", rows)
	}
	if limited >= unlimited {
		t.Fatalf("LIMIT 5 read %d blocks, unlimited %d: the pushdown read no fewer holders", limited, unlimited)
	}
}

// lineup is a 2-hop fan built so that the LIMIT cut falls inside one rank's
// candidates: src and two hubs on rank 0, every hub pointing at every
// candidate, and the candidates on ranks 1..3 only — so a candidate migrated
// to rank 0 sorts below every other one.
type lineup struct {
	e     *core.Engine
	src   fabric.DPtr
	cands []fabric.DPtr
	apps  map[fabric.DPtr]uint64
}

// lineupPattern is the 2-hop query over a lineup: with 18 candidates and
// LIMIT 2, the first pushed-down chunk reads 4 of them.
var lineupPattern = &Pattern{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut}}, Limit: 2}

func newLineup(t *testing.T, optimistic bool) *lineup {
	t.Helper()
	const ranks = 4
	e := core.NewEngine(rma.New(ranks), core.Config{
		BlockSize:       256,
		BlocksPerRank:   1 << 12,
		LockTries:       256,
		OptimisticReads: optimistic,
		CacheBlocks:     true,
		HolderCodec:     holder.CodecV2,
	})
	l := &lineup{e: e, apps: make(map[fabric.DPtr]uint64)}
	tx := e.StartLocal(0, core.ReadWrite)
	create := func(app uint64) fabric.DPtr {
		dp, err := tx.CreateVertex(app)
		if err != nil {
			t.Fatal(err)
		}
		l.apps[dp] = app
		return dp
	}
	l.src = create(0)
	hubs := []fabric.DPtr{create(ranks), create(2 * ranks)}
	for app := uint64(1); len(l.cands) < 18; app++ {
		if app%ranks != 0 { // OwnerOf is app mod ranks: keep rank 0 free
			l.cands = append(l.cands, create(app))
		}
	}
	for _, h := range hubs {
		if _, err := tx.CreateEdge(l.src, h, holder.DirOut, 0); err != nil {
			t.Fatal(err)
		}
		for _, c := range l.cands {
			if _, err := tx.CreateEdge(h, c, holder.DirOut, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return l
}

// highest is the candidate whose DPtr sorts last: far beyond the cut.
func (l *lineup) highest() fabric.DPtr { return slices.Max(l.cands) }

// migrate moves the candidate at dp to rank 0 and reports how many vertices
// moved.
func (l *lineup) migrate(t *testing.T, dp fabric.DPtr) int {
	t.Helper()
	n, err := l.e.MigrateVertices(0, []core.MigrationMove{{App: l.apps[dp], Old: dp, Dest: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// current resolves a vertex's primary through the index.
func (l *lineup) current(t *testing.T, app uint64) fabric.DPtr {
	t.Helper()
	tx := l.e.StartLocal(0, core.ReadOnly)
	defer tx.Abort()
	dp, err := tx.TranslateVertexID(app)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// checkAgainstNaive runs the lineup query compiled and naive in one
// transaction, requires identical results and a clean commit, and returns
// the rows.
func (l *lineup) checkAgainstNaive(t *testing.T) []Row {
	t.Helper()
	tx := l.e.StartLocal(0, core.ReadOnly)
	defer tx.Abort()
	got, err := Run(tx, l.src, lineupPattern)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNaive(tx, l.src, lineupPattern)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pushdown diverged from the naive walk:\ncompiled: %+v\nnaive:    %+v", got.Rows, want.Rows)
	}
	return got.Rows
}

// forModes runs fn with optimistic and with locking read-only transactions.
func forModes(t *testing.T, fn func(t *testing.T, optimistic bool)) {
	for _, optimistic := range []bool{true, false} {
		name := "locking"
		if optimistic {
			name = "optimistic"
		}
		t.Run(name, func(t *testing.T) { fn(t, optimistic) })
	}
}

// TestLimitPushdownExactAfterMigration: a candidate whose stale DPtr sorts
// beyond the cut is migrated so that its new primary sorts below every
// other candidate. The pushdown must not skip its stub: the result equals
// the naive walk, whose first row is the migrated vertex.
func TestLimitPushdownExactAfterMigration(t *testing.T) {
	forModes(t, func(t *testing.T, optimistic bool) {
		l := newLineup(t, optimistic)
		before := l.checkAgainstNaive(t)
		x := l.highest()
		if before[0].Verts[0] == x || before[1].Verts[0] == x {
			t.Fatal("lineup broken: the highest candidate is already inside the cut")
		}
		if n := l.migrate(t, x); n != 1 {
			t.Fatalf("migrated %d vertices, want 1", n)
		}
		rows := l.checkAgainstNaive(t)
		if moved := l.current(t, l.apps[x]); rows[0].Verts[0] != moved {
			t.Fatalf("first row %v, want the migrated vertex at %v", rows[0].Verts[0], moved)
		}
	})
}

// TestLimitPushdownMigrationBetweenRunAndCommit: a migration that lands
// between a pushed-down query and its commit invalidates the query's
// premise. An optimistic transaction must fail its commit with a
// transaction-critical error; a locking one holds the stub epochs
// read-locked, so the migration is skipped until the transaction closes.
func TestLimitPushdownMigrationBetweenRunAndCommit(t *testing.T) {
	forModes(t, func(t *testing.T, optimistic bool) {
		l := newLineup(t, optimistic)
		x := l.highest()
		tx := l.e.StartLocal(0, core.ReadOnly)
		defer tx.Abort()
		if _, err := Run(tx, l.src, lineupPattern); err != nil {
			t.Fatal(err)
		}
		if ok, err := tx.NoMigrationStubs(); !ok || err != nil {
			t.Fatalf("query did not push down: NoMigrationStubs = %v, %v", ok, err)
		}
		n := l.migrate(t, x)
		err := tx.Commit()
		if optimistic {
			if n != 1 {
				t.Fatalf("migrated %d vertices, want 1 (optimistic readers hold no locks)", n)
			}
			if !errors.Is(err, core.ErrTxCritical) {
				t.Fatalf("commit after a concurrent migration = %v, want ErrTxCritical", err)
			}
			return
		}
		if n != 0 {
			t.Fatalf("migrated %d vertices under a pushed-down locking query, want 0", n)
		}
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if n := l.migrate(t, x); n != 1 {
			t.Fatalf("migrated %d vertices after the query closed, want 1", n)
		}
		l.checkAgainstNaive(t)
	})
}

// TestLimitPushdownUnderLiveMigration races LIMIT queries against a live
// migrator. Every round starts from a fresh store, so the race covers the
// window in which the stub epochs flip from quiet. Each query runs compiled
// and naive in one transaction; whenever that transaction commits, the two
// results must be identical. Run under -race in CI (the pushdown stress
// step of the race job).
func TestLimitPushdownUnderLiveMigration(t *testing.T) {
	const (
		rounds   = 6
		queriers = 3
		queries  = 12
		moves    = 24
	)
	forModes(t, func(t *testing.T, optimistic bool) {
		committed := 0
		for round := 0; round < rounds; round++ {
			l := newLineup(t, optimistic)
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				firstErr error
			)
			report := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			for q := 0; q < queriers; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					rank := fabric.Rank(q % 4)
					for i := 0; i < queries; i++ {
						tx := l.e.StartLocal(rank, core.ReadOnly)
						got, err1 := Run(tx, l.src, lineupPattern)
						want, err2 := RunNaive(tx, l.src, lineupPattern)
						if err1 != nil || err2 != nil {
							tx.Abort()
							if err := errors.Join(err1, err2); !errors.Is(err, core.ErrTxCritical) {
								report(err)
								return
							}
							continue
						}
						if err := tx.Commit(); err != nil {
							if !errors.Is(err, core.ErrTxCritical) {
								report(err)
								return
							}
							continue
						}
						if !reflect.DeepEqual(got, want) {
							report(fmt.Errorf("committed query diverged:\ncompiled: %+v\nnaive:    %+v", got.Rows, want.Rows))
							return
						}
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}(q)
			}
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				apps := make([]uint64, 0, len(l.cands))
				for _, dp := range l.cands {
					apps = append(apps, l.apps[dp])
				}
				for i := 0; i < moves; i++ {
					app := apps[rng.Intn(len(apps))]
					tx := l.e.StartLocal(0, core.ReadOnly)
					old, err := tx.TranslateVertexID(app)
					tx.Abort()
					if err != nil {
						report(err)
						return
					}
					dest := fabric.Rank(rng.Intn(4))
					if dest == old.Rank() {
						continue
					}
					if _, err := l.e.MigrateVertices(dest, []core.MigrationMove{{App: app, Old: old, Dest: dest}}); err != nil {
						report(err)
						return
					}
				}
			}(int64(round))
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			l.checkAgainstNaive(t)
		}
		if committed == 0 {
			t.Fatal("no query committed in any round")
		}
		t.Logf("%d of %d queries committed", committed, rounds*queriers*queries)
	})
}
