package main

import (
	"errors"
	"fmt"
	"math/rand"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/workload"
)

// pickOp draws one LinkBench op from the Table 3 weights.
func pickOp(w [workload.NumOps]float64, rng *rand.Rand) workload.Op {
	r, acc := rng.Float64(), 0.0
	for op := workload.Op(0); op < workload.NumOps; op++ {
		acc += w[op]
		if r < acc {
			return op
		}
	}
	return workload.OpGetProps
}

// linkbenchOp returns the LinkBench mix over uniform keys: three read ops in
// read-only transactions and four write ops in read-write transactions.
// Deletes remove vertices the session inserted (see session.live).
func linkbenchOp(keySpace uint64) func(s *session) (int, error) {
	weights := workload.LinkBench.Weights
	return func(s *session) (int, error) {
		op := pickOp(weights, s.rng)
		app := s.rng.Uint64() % keySpace
		app2 := s.rng.Uint64() % keySpace
		age := s.rng.Uint64() % 100
		switch op {
		case workload.OpGetProps, workload.OpCountEdges, workload.OpGetEdges:
			return classRead, s.retry(func() error { return s.linkbenchRead(op, app) })
		case workload.OpAddVertex:
			app = s.insertApp()
			return classWrite, s.retry(func() error { return s.addVertex(app, age) })
		case workload.OpDelVertex:
			app = s.deleteApp()
			return classWrite, s.retry(func() error { return s.delVertex(app) })
		case workload.OpUpdProp:
			app = s.own(app)
			return classWrite, s.retry(func() error { return s.updProp(app, age) })
		case workload.OpAddEdge:
			return classWrite, s.retry(func() error { return s.addEdge(app, app2) })
		}
		return classRead, fmt.Errorf("unknown op %v", op)
	}
}

func (s *session) linkbenchRead(op workload.Op, app uint64) error {
	tx := s.p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	h, err := s.lookup(tx, app)
	if err != nil {
		return err
	}
	switch op {
	case workload.OpGetProps:
		s.tr.begin(kDecodeProp)
		h.Property(s.sch.AgeProp)
		s.tr.end(0, false)
	case workload.OpCountEdges:
		s.tr.begin(kDecodeEdges)
		n := h.CountEdges(gdi.MaskAll)
		s.tr.end(int64(n), false)
	case workload.OpGetEdges:
		s.tr.begin(kDecodeEdges)
		es, err := h.Edges(gdi.MaskAll, nil)
		s.tr.end(int64(len(es)), err != nil)
		if err != nil {
			return err
		}
	}
	return s.commit(tx)
}

func (s *session) addVertex(app, age uint64) error {
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
	label := s.sch.Labels[app%uint64(len(s.sch.Labels))]
	if err := s.mutate(func() error { return h.AddLabel(label) }); err != nil {
		return err
	}
	if err := s.mutate(func() error { return h.SetProperty(s.sch.AgeProp, gdi.Uint64Value(age)) }); err != nil {
		return err
	}
	if err := s.commit(tx); err != nil {
		return err
	}
	s.inserted(app, label, age)
	return nil
}

func (s *session) delVertex(app uint64) error {
	tx := s.p.StartTransaction(gdi.ReadWrite)
	defer tx.Abort()
	id, err := s.translate(tx, app)
	if err != nil {
		return err
	}
	if err := s.mutate(func() error { return tx.DeleteVertex(id) }); err != nil {
		return err
	}
	if err := s.commit(tx); err != nil {
		return err
	}
	s.deleted(app)
	return nil
}

func (s *session) updProp(app, age uint64) error {
	tx := s.p.StartTransaction(gdi.ReadWrite)
	defer tx.Abort()
	h, err := s.lookup(tx, app)
	if err != nil {
		return err
	}
	if err := s.mutate(func() error { return h.SetProperty(s.sch.AgeProp, gdi.Uint64Value(age)) }); err != nil {
		return err
	}
	if err := s.commit(tx); err != nil {
		return err
	}
	s.written[app] = vertexWrite{label: s.sch.Labels[app%uint64(len(s.sch.Labels))], age: age}
	return nil
}

func (s *session) addEdge(app, app2 uint64) error {
	tx := s.p.StartTransaction(gdi.ReadWrite)
	defer tx.Abort()
	a, err := s.translate(tx, app)
	if err != nil {
		return err
	}
	b, err := s.translate(tx, app2)
	if err != nil {
		return err
	}
	if err := s.mutate(func() error { _, err := tx.CreateEdge(a, b, gdi.DirOut, 0); return err }); err != nil {
		return err
	}
	return s.commit(tx)
}

// checkWrites verifies the last committed vertex-level write of every appID
// a session wrote: inserted and updated vertices read back their label and
// age, deleted ones are gone.
func checkWrites(sessions []*session, chk *checker) {
	const perTx = 256
	for _, s := range sessions {
		tx := s.p.StartTransaction(gdi.ReadOnly)
		k := 0
		for app, want := range s.written {
			if k++; k%perTx == 0 {
				if err := tx.Commit(); err != nil {
					chk.failf("read-back transaction: %v", err)
				}
				tx = s.p.StartTransaction(gdi.ReadOnly)
			}
			id, err := tx.TranslateVertexID(app)
			if want.deleted {
				if !errors.Is(err, gdi.ErrNotFound) {
					chk.failf("committed delete of %d: translate returned %v, want not found", app, err)
				}
				continue
			}
			if err != nil {
				chk.failf("committed write of %d does not translate: %v", app, err)
				continue
			}
			h, err := tx.AssociateVertex(id)
			if err != nil {
				chk.failf("committed write of %d: %v", app, err)
				continue
			}
			if !h.HasLabel(want.label) {
				chk.failf("committed write of %d: labels %v, want %d", app, h.Labels(), want.label)
			}
			if v, ok := h.Property(s.sch.AgeProp); !ok || gdi.Uint64Of(v) != want.age {
				chk.failf("committed write of %d: age %v (present %v), want %d", app, v, ok, want.age)
			}
		}
		if err := tx.Commit(); err != nil {
			chk.failf("read-back transaction: %v", err)
		}
	}
}
