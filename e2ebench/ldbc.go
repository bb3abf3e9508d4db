package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/kron"
	"github.com/gdi-go/gdi/internal/query"
)

// The gdi-ldbc interactive mix: 70% short reads, 20% 2-hop friend-of-friend
// queries, 10% updates (half of them person-inserts with one edge).
const (
	ldbcShortWeight  = 70
	ldbcFriendWeight = 20
	ldbcUpdateWeight = 10
	friendLimit      = 20
	friendAgeOver    = 30
	// checkRoots is how many roots the compiled and naive query plans are
	// compared on after the mix.
	checkRoots = 32
)

// friendPattern is the 2-hop friend-of-friend query: both edge directions
// per hop, final-hop vertices with age >= friendAgeOver, LIMIT friendLimit,
// projecting age.
func friendPattern(db *gdi.Database, sch kron.Schema) *query.Pattern {
	cons := constraint.New(db.Engine().Registry(0))
	i := cons.AddSubconstraint(constraint.Subconstraint{})
	cons.AddPropCond(i, constraint.PropCond{
		PType:    sch.AgeProp,
		Datatype: gdi.TypeUint64,
		Op:       constraint.OpGe,
		Operand:  gdi.Uint64Value(friendAgeOver),
	})
	return &query.Pattern{
		Kind:       query.KHop,
		Hops:       []query.Hop{{Mask: gdi.MaskAll}, {Mask: gdi.MaskAll, Cons: cons}},
		Limit:      friendLimit,
		Project:    sch.AgeProp,
		HasProject: true,
	}
}

// ldbcOp returns the interactive mix over uniform roots.
func ldbcOp(pattern *query.Pattern, keySpace uint64) func(s *session) (int, error) {
	return func(s *session) (int, error) {
		r := s.rng.Intn(ldbcShortWeight + ldbcFriendWeight + ldbcUpdateWeight)
		app := s.rng.Uint64() % keySpace
		switch {
		case r < ldbcShortWeight:
			return classRead, s.retry(func() error { return s.shortRead(app) })
		case r < ldbcShortWeight+ldbcFriendWeight:
			return classHop2, s.retry(func() error { return s.friends(pattern, app) })
		}
		app2 := s.rng.Uint64() % keySpace
		age := s.rng.Uint64() % 100
		if s.rng.Intn(2) == 0 {
			app = s.insertApp()
			return classWrite, s.retry(func() error { return s.personInsert(app, app2, age) })
		}
		app = s.own(app)
		return classWrite, s.retry(func() error { return s.updProp(app, age) })
	}
}

func (s *session) shortRead(app uint64) error {
	tx := s.p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	h, err := s.lookup(tx, app)
	if err != nil {
		return err
	}
	s.tr.begin(kDecodeProp)
	h.Property(s.sch.AgeProp)
	h.Labels()
	s.tr.end(0, false)
	return s.commit(tx)
}

func (s *session) friends(pattern *query.Pattern, app uint64) error {
	tx := s.p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	id, err := s.translate(tx, app)
	if err != nil {
		return err
	}
	s.tr.begin(kQuery)
	res, err := query.Run(tx, id, pattern)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	s.tr.end(int64(rows), err != nil)
	if err != nil {
		return err
	}
	return s.commit(tx)
}

// personInsert creates a labelled vertex with an age and one edge to app2.
func (s *session) personInsert(app, app2, age uint64) error {
	tx := s.p.StartTransaction(gdi.ReadWrite)
	defer tx.Abort()
	var id gdi.VertexID
	if err := s.mutate(func() (err error) { id, err = tx.CreateVertex(app); return err }); err != nil {
		return err
	}
	h, err := s.associate(tx, id)
	if err != nil {
		return err
	}
	label := s.sch.Labels[0]
	if err := s.mutate(func() error { return h.AddLabel(label) }); err != nil {
		return err
	}
	if err := s.mutate(func() error { return h.SetProperty(s.sch.AgeProp, gdi.Uint64Value(age)) }); err != nil {
		return err
	}
	to, err := s.translate(tx, app2)
	if err != nil {
		return err
	}
	if err := s.mutate(func() error { _, err := tx.CreateEdge(id, to, gdi.DirOut, 0); return err }); err != nil {
		return err
	}
	if err := s.commit(tx); err != nil {
		return err
	}
	s.inserted(app, label, age)
	return nil
}

// checkLDBC compares the compiled query plan with the naive reference walk
// row for row on a fixed sample of roots, and checks that committed
// person-inserts and updates read back.
func checkLDBC(g *graphDB, sessions []*session, pattern *query.Pattern, seed int64, chk *checker) {
	rng := rand.New(rand.NewSource(seed ^ 0x1dbc))
	p := sessions[0].p
	rowsSeen := 0
	for i := 0; i < checkRoots; i++ {
		app := rng.Uint64() % g.kc.NumVertices()
		tx := p.StartTransaction(gdi.ReadOnly)
		id, err := tx.TranslateVertexID(app)
		if err != nil {
			chk.failf("check root %d: %v", app, err)
			tx.Abort()
			continue
		}
		got, err1 := query.Run(tx, id, pattern)
		want, err2 := query.RunNaive(tx, id, pattern)
		if err := tx.Commit(); err != nil {
			chk.failf("check root %d: commit: %v", app, err)
		}
		if err1 != nil || err2 != nil {
			chk.failf("check root %d: compiled err %v, naive err %v", app, err1, err2)
			continue
		}
		if msg := diffRows(got.Rows, want.Rows); msg != "" {
			chk.failf("check root %d: compiled and naive plans differ: %s", app, msg)
		}
		rowsSeen += len(got.Rows)
	}
	if rowsSeen == 0 {
		chk.failf("no 2-hop rows on any of %d check roots", checkRoots)
	}
	checkWrites(sessions, chk)
}

func diffRows(got, want []query.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Verts, want[i].Verts) || got[i].OK != want[i].OK || !bytes.Equal(got[i].Prop, want[i].Prop) {
			return fmt.Sprintf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}
