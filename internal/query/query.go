// Package query is the declarative traversal/pattern-match front end over
// the transactional core: k-hop expansion with per-hop direction masks and
// label/property predicates, triangle and fixed-length simple-path motifs,
// plus a limit/projection step — the interactive-query taxonomy of
// "Demystifying Graph Databases" compiled onto the engine's future/batch
// API.
//
// The compiled executor (Run) turns every hop into ONE batched association
// round: the frontier is deduped and handed to core.Tx.ExpandFrontier, which
// groups the fetches by owner rank into one vectored GET train per rank,
// folds forwarding-stub chases and multi-block continuation reads into the
// following rounds of the same flush, and serves replica- and cache-eligible
// fetches with no traffic at all. A k-hop pattern without a LIMIT therefore
// costs k+1 association rounds regardless of frontier width, where the naive
// reference (RunNaive) pays one scalar AssociateVertex round-trip per
// frontier vertex.
//
// A k-hop pattern with a LIMIT pushes the limit into its final round: rows
// are ordered by DPtr, so Run associates the final frontier in ascending
// DPtr order, in chunks of 2×Limit that double each round, and stops once
// Limit candidates match the last hop's predicate. Candidates past the cut
// are never read, so they can neither fail nor abort the query. The early
// stop is exact only if no skipped candidate is a live-migration forwarding
// stub whose vertex now sorts below the cut; core.Tx.NoMigrationStubs
// proves that (and keeps it so until the transaction commits), and when it
// cannot, the whole final frontier is associated in one round as without a
// LIMIT. RunNaive never pushes down: it reads the whole final frontier and
// cuts after the sort.
//
// Both executors return canonically sorted rows, so their results are
// bit-identical — the golden-equivalence contract the tests pin across both
// holder codecs and replicated stores.
package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/lpg"
)

// Kind selects the match shape.
type Kind uint8

const (
	// KHop matches the vertices reached after exactly len(Hops) expansion
	// steps (BFS layering: a vertex reached at an earlier hop is not
	// re-reported at a later one). Rows carry one vertex.
	KHop Kind = iota
	// Triangle matches triangles through the source: pairs of neighbors
	// (b, c) of the source that are themselves adjacent, under Hops[0]'s
	// mask and predicate. Rows carry (src, b, c) with b < c.
	Triangle
	// Path matches simple paths of exactly len(Hops) edges rooted at the
	// source, each hop under its own mask and predicate; no vertex repeats
	// inside one path. Rows carry the full path, source first.
	Path
)

func (k Kind) String() string {
	switch k {
	case KHop:
		return "k-hop"
	case Triangle:
		return "triangle"
	case Path:
		return "path"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Hop is one expansion step: which edge directions to follow and which
// predicate the vertices reached by the step must satisfy (nil = all).
type Hop struct {
	Mask core.DirMask
	Cons *constraint.Constraint
}

// Pattern is a declarative match request rooted at one source vertex.
type Pattern struct {
	Kind Kind
	// Hops drives KHop and Path shapes hop by hop. Triangle uses Hops[0]
	// (mask + predicate on both far corners); it defaults to MaskAll/nil
	// when absent.
	Hops []Hop
	// Limit caps the rows returned: the result is the first Limit rows of
	// the canonical order, a deterministic prefix; 0 means unlimited. At
	// most MaxLimit. Run pushes a KHop limit into the final hop and reads
	// only the lowest-ordered candidates (see the package comment).
	Limit int
	// Project, when HasProject, attaches the named property of each row's
	// last vertex to the row.
	Project    lpg.PTypeID
	HasProject bool
}

// Row is one match: the witnessing vertices (length depends on Kind) and,
// under projection, the projected property of the last vertex.
type Row struct {
	Verts []fabric.DPtr
	Prop  []byte
	OK    bool // projection present on the vertex
}

// Result is a canonically ordered set of rows: sorted lexicographically by
// Verts, deduped, then cut to Pattern.Limit.
type Result struct {
	Rows []Row
}

// Errors returned by pattern validation.
var (
	ErrBadPattern = errors.New("query: bad pattern")
)

// Validate rejects patterns the executors cannot run.
func (p *Pattern) Validate() error {
	switch p.Kind {
	case KHop, Path:
		if len(p.Hops) == 0 {
			return fmt.Errorf("%w: %s needs at least one hop", ErrBadPattern, p.Kind)
		}
	case Triangle:
		if len(p.Hops) > 1 {
			return fmt.Errorf("%w: triangle takes at most one hop spec", ErrBadPattern)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadPattern, uint8(p.Kind))
	}
	if len(p.Hops) > MaxHops {
		return fmt.Errorf("%w: %d hops exceeds the limit of %d", ErrBadPattern, len(p.Hops), MaxHops)
	}
	for i, h := range p.Hops {
		if h.Mask == 0 || h.Mask&^core.MaskAll != 0 {
			return fmt.Errorf("%w: hop %d has invalid direction mask %#x", ErrBadPattern, i, uint8(h.Mask))
		}
		if err := validateCons(h.Cons); err != nil {
			return fmt.Errorf("%w: hop %d: %v", ErrBadPattern, i, err)
		}
	}
	if p.Limit < 0 {
		return fmt.Errorf("%w: negative limit", ErrBadPattern)
	}
	if p.Limit > MaxLimit {
		return fmt.Errorf("%w: limit %d exceeds the maximum of %d", ErrBadPattern, p.Limit, MaxLimit)
	}
	return nil
}

// validateCons applies the wire-format bounds to one hop's predicate, so a
// pattern that validates always encodes to bytes Decode accepts.
func validateCons(c *constraint.Constraint) error {
	if c == nil {
		return nil
	}
	if c.Version > maxConsVersion {
		return fmt.Errorf("constraint version %d exceeds %d", c.Version, uint64(maxConsVersion))
	}
	if len(c.Subs) > MaxSubs {
		return fmt.Errorf("%d subconstraints exceed %d", len(c.Subs), MaxSubs)
	}
	for _, sub := range c.Subs {
		if len(sub.Labels) > MaxConds || len(sub.Props) > MaxConds {
			return fmt.Errorf("subconstraint with %d label and %d property conditions exceeds %d",
				len(sub.Labels), len(sub.Props), MaxConds)
		}
		for _, pc := range sub.Props {
			if pc.Op > constraint.OpPrefix {
				return fmt.Errorf("unknown op %d", uint8(pc.Op))
			}
			if len(pc.Operand) > MaxOperand {
				return fmt.Errorf("operand of %d bytes exceeds %d", len(pc.Operand), MaxOperand)
			}
		}
	}
	return nil
}

// expander abstracts the one operation the two executors differ in: resolve
// a frontier to handles. The compiled expander batches the whole frontier
// into one association round; the naive one pays a scalar association per
// vertex. Everything downstream — predicate filtering, dedup, harvest order,
// canonical sort — is shared, which is what makes the golden-equivalence
// guarantee structural rather than coincidental.
type expander func(frontier []fabric.DPtr, mask core.DirMask, cons *constraint.Constraint) ([]*core.VertexHandle, []fabric.DPtr, error)

// Run executes the pattern with the compiled frontier-batched plan: one
// association round (one train per owner rank) per hop, with a KHop LIMIT
// pushed into the final hop.
func Run(tx *core.Tx, src fabric.DPtr, p *Pattern) (*Result, error) {
	return run(tx, src, p, tx.ExpandFrontier, true)
}

// RunNaive executes the pattern with the per-vertex reference walk: one
// scalar AssociateVertex per frontier vertex per hop, the whole final
// frontier read before the LIMIT cut. It exists as the golden reference and
// the ablation baseline.
func RunNaive(tx *core.Tx, src fabric.DPtr, p *Pattern) (*Result, error) {
	return run(tx, src, p, naiveExpand(tx), false)
}

func run(tx *core.Tx, src fabric.DPtr, p *Pattern, ex expander, pushdown bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var (
		rows []Row
		err  error
	)
	switch p.Kind {
	case KHop:
		rows, err = runKHop(tx, src, p, ex, pushdown)
	case Triangle:
		rows, err = runTriangle(src, p, ex)
	case Path:
		rows, err = runPath(src, p, ex)
	}
	if err != nil {
		return nil, err
	}
	return finish(tx, p, rows)
}

// runKHop is BFS layering: round i associates the layer-i frontier (one
// train per rank under the compiled expander), filters it by the predicate
// of the hop that reached it, and harvests the next layer under hop i's
// mask. Visited vertices never re-enter a frontier, so a k-hop costs k+1
// association rounds — except that under pushdown a limited final round
// reads only its lowest-ordered candidates, in as many rounds as it takes
// to match Limit of them (finalRound).
func runKHop(tx *core.Tx, src fabric.DPtr, p *Pattern, ex expander, pushdown bool) ([]Row, error) {
	frontier := []fabric.DPtr{src}
	visited := map[fabric.DPtr]struct{}{src: {}}
	for i, hop := range p.Hops {
		var cons *constraint.Constraint
		if i > 0 {
			cons = p.Hops[i-1].Cons
		}
		_, next, err := ex(frontier, hop.Mask, cons)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, nb := range next {
			if _, seen := visited[nb]; !seen {
				visited[nb] = struct{}{}
				frontier = append(frontier, nb)
			}
		}
	}
	cons := p.Hops[len(p.Hops)-1].Cons
	var last []*core.VertexHandle
	var err error
	if pushdown && p.Limit > 0 {
		last, err = finalRound(tx, frontier, cons, p.Limit)
	} else {
		last, _, err = ex(frontier, 0, cons) // associate + filter only
	}
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(last))
	for _, h := range last {
		rows = append(rows, Row{Verts: []fabric.DPtr{h.ID()}})
	}
	return rows, nil
}

// finalRound is the LIMIT pushdown: it associates the final frontier in
// ascending DPtr order — the canonical row order — in chunks of 2×limit
// that double each round, and stops once limit candidates match cons.
// Every candidate below the cut has been read, so the matched set contains
// the limit lowest-ordered rows, provided no skipped candidate is a
// forwarding stub whose vertex now sorts below the cut; without that proof
// the whole frontier is associated in one round.
func finalRound(tx *core.Tx, frontier []fabric.DPtr, cons *constraint.Constraint, limit int) ([]*core.VertexHandle, error) {
	chunk := 2 * limit
	if len(frontier) > chunk {
		exact, err := tx.NoMigrationStubs()
		if err != nil {
			return nil, err
		}
		if exact {
			slices.Sort(frontier)
		} else {
			chunk = len(frontier)
		}
	}
	var matched []*core.VertexHandle
	for lo := 0; lo < len(frontier) && len(matched) < limit; chunk *= 2 {
		hi := min(lo+chunk, len(frontier))
		m, _, err := tx.ExpandFrontier(frontier[lo:hi], 0, cons)
		if err != nil {
			return nil, err
		}
		matched = append(matched, m...)
		lo = hi
	}
	return matched, nil
}

// runTriangle closes wedges: associate the source's neighbors in one round,
// keep those matching the predicate, and report every matched pair that is
// itself adjacent under the same mask. Two association rounds total.
func runTriangle(src fabric.DPtr, p *Pattern, ex expander) ([]Row, error) {
	hop := Hop{Mask: core.MaskAll}
	if len(p.Hops) == 1 {
		hop = p.Hops[0]
	}
	_, nbs, err := ex([]fabric.DPtr{src}, hop.Mask, nil)
	if err != nil {
		return nil, err
	}
	corners := nbs[:0]
	for _, nb := range nbs {
		if nb != src {
			corners = append(corners, nb)
		}
	}
	matched, _, err := ex(corners, 0, hop.Cons)
	if err != nil {
		return nil, err
	}
	inSet := make(map[fabric.DPtr]struct{}, len(matched))
	for _, h := range matched {
		inSet[h.ID()] = struct{}{}
	}
	var rows []Row
	for _, hb := range matched {
		b := hb.ID()
		if err := hb.ForEachNeighbor(hop.Mask, func(c fabric.DPtr) {
			if c <= b {
				return // each closing edge reports once, b < c
			}
			if _, ok := inSet[c]; ok {
				rows = append(rows, Row{Verts: []fabric.DPtr{src, b, c}})
			}
		}); err != nil {
			return nil, err
		}
	}
	return dedupRows(rows), nil
}

// runPath enumerates simple paths level by level: round i associates the
// distinct depth-i path tails in one train per rank, prunes paths whose tail
// fails the predicate of the hop that reached it, and extends the survivors
// under hop i's mask, skipping vertices already on the path.
func runPath(src fabric.DPtr, p *Pattern, ex expander) ([]Row, error) {
	paths := [][]fabric.DPtr{{src}}
	for i := 0; i <= len(p.Hops); i++ {
		var cons *constraint.Constraint
		if i > 0 {
			cons = p.Hops[i-1].Cons
		}
		// One association round for ALL tails at this depth.
		var tails []fabric.DPtr
		tailSeen := make(map[fabric.DPtr]struct{})
		for _, path := range paths {
			t := path[len(path)-1]
			if _, dup := tailSeen[t]; !dup {
				tailSeen[t] = struct{}{}
				tails = append(tails, t)
			}
		}
		matched, _, err := ex(tails, 0, cons)
		if err != nil {
			return nil, err
		}
		byTail := make(map[fabric.DPtr]*core.VertexHandle, len(matched))
		for _, h := range matched {
			byTail[h.ID()] = h
		}
		if i == len(p.Hops) {
			// Final depth: keep paths whose tail survived the last predicate.
			kept := paths[:0]
			for _, path := range paths {
				if _, ok := byTail[path[len(path)-1]]; ok {
					kept = append(kept, path)
				}
			}
			paths = kept
			break
		}
		var next [][]fabric.DPtr
		for _, path := range paths {
			h, ok := byTail[path[len(path)-1]]
			if !ok {
				continue
			}
			if err := h.ForEachNeighbor(p.Hops[i].Mask, func(nb fabric.DPtr) {
				for _, v := range path {
					if v == nb {
						return // simple paths only
					}
				}
				ext := make([]fabric.DPtr, len(path)+1)
				copy(ext, path)
				ext[len(path)] = nb
				next = append(next, ext)
			}); err != nil {
				return nil, err
			}
		}
		paths = next
	}
	rows := make([]Row, 0, len(paths))
	for _, path := range paths {
		rows = append(rows, Row{Verts: path})
	}
	return dedupRows(rows), nil
}

// naiveExpand mirrors core.Tx.ExpandFrontier vertex by vertex: same dedup,
// same filter, same harvest order — but one scalar association round-trip
// per frontier vertex.
func naiveExpand(tx *core.Tx) expander {
	return func(frontier []fabric.DPtr, mask core.DirMask, cons *constraint.Constraint) ([]*core.VertexHandle, []fabric.DPtr, error) {
		var matched []*core.VertexHandle
		seenV := make(map[fabric.DPtr]struct{}, len(frontier))
		for _, dp := range frontier {
			h, err := tx.AssociateVertex(dp)
			if err != nil {
				return nil, nil, err
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
		var next []fabric.DPtr
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
}

// finish sorts rows canonically, applies the limit, and resolves the
// projection. Projection targets are already associated by the final
// round, so this is communication-free under both executors.
func finish(tx *core.Tx, p *Pattern, rows []Row) (*Result, error) {
	sort.Slice(rows, func(i, j int) bool { return lessVerts(rows[i].Verts, rows[j].Verts) })
	if p.Limit > 0 && len(rows) > p.Limit {
		rows = rows[:p.Limit]
	}
	if p.HasProject {
		for i := range rows {
			h, err := tx.AssociateVertexAsync(rows[i].Verts[len(rows[i].Verts)-1]).Wait()
			if err != nil {
				return nil, err
			}
			rows[i].Prop, rows[i].OK = h.Property(p.Project)
		}
	}
	return &Result{Rows: rows}, nil
}

func lessVerts(a, b []fabric.DPtr) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// dedupRows removes duplicate witness tuples (paths revisited through
// parallel edges, wedges closed by multi-edges) without disturbing order;
// finish sorts afterwards anyway.
func dedupRows(rows []Row) []Row {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := vertsKey(r.Verts)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

func vertsKey(vs []fabric.DPtr) string {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = append(b,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}
