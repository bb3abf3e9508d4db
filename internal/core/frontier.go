package core

import (
	"fmt"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/fabric"
)

// Matches evaluates cons against the vertex's labels and properties in
// place — no copies, no communication (a nil constraint matches).
func (h *VertexHandle) Matches(cons *constraint.Constraint) bool {
	return cons.Eval(h.st.v.Labels, h.st.v.Props)
}

// ExpandFrontier is the batch expansion entry point the query layer compiles
// multi-hop traversals onto. It associates every frontier DPtr through the
// future machinery — duplicates and per-tx migration aliases dedup to one
// fetch, and all fetches of one round ride one vectored GET train per owner
// rank, with stub chases and multi-block continuation reads folded into the
// following rounds and replica-/cache-served fetches resolving with no
// traffic at all — then filters the frontier by cons and harvests the
// matched vertices' distinct neighbors under mask.
//
// matched holds the handles of the frontier vertices that satisfy cons, in
// deduped frontier order; next holds the union of their neighbors in
// first-encounter order (mask 0 skips the harvest: associate + filter only,
// the shape a traversal's final hop wants). A frontier vertex that no longer
// exists (an optimistic reader can see a neighbor deleted after it read the
// edge) fails the expansion with ErrNotFound, as AssociateVertex would.
func (tx *Tx) ExpandFrontier(frontier []fabric.DPtr, mask DirMask, cons *constraint.Constraint) (matched []*VertexHandle, next []fabric.DPtr, err error) {
	if len(frontier) == 0 {
		return nil, nil, nil
	}
	if cons != nil && cons.Stale(tx.registry()) {
		return nil, nil, fmt.Errorf("%w: stale constraint", ErrTxCritical)
	}
	hs, err := tx.AssociateVertices(frontier)
	if err != nil {
		return nil, nil, err
	}
	matched = make([]*VertexHandle, 0, len(hs))
	seenV := make(map[fabric.DPtr]struct{}, len(hs))
	for i, h := range hs {
		if h == nil {
			return nil, nil, fmt.Errorf("%w: frontier vertex %v", ErrNotFound, frontier[i])
		}
		if _, dup := seenV[h.ID()]; dup {
			continue
		}
		seenV[h.ID()] = struct{}{}
		if h.Matches(cons) {
			matched = append(matched, h)
		}
	}
	if mask == 0 {
		return matched, nil, nil
	}
	seenN := make(map[fabric.DPtr]struct{})
	for _, h := range matched {
		if err := h.ForEachNeighbor(mask, func(nb fabric.DPtr) {
			if _, dup := seenN[nb]; !dup {
				seenN[nb] = struct{}{}
				next = append(next, nb)
			}
		}); err != nil {
			return nil, nil, err
		}
	}
	return matched, next, nil
}
