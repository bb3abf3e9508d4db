package core

import (
	"fmt"
	"sort"

	"github.com/gdi-go/gdi/internal/collective"
	"github.com/gdi-go/gdi/internal/fabric"
	"github.com/gdi-go/gdi/internal/holder"
	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/snapshot"
)

// VertexSpec describes one vertex for bulk loading.
type VertexSpec struct {
	AppID  uint64
	Labels []lpg.LabelID
	Props  []lpg.Property
}

// EdgeSpec describes one edge for bulk loading, in application-ID space.
type EdgeSpec struct {
	OriginApp, TargetApp uint64
	Dir                  holder.Direction
	Label                lpg.LabelID
}

// BulkLoadVertices is the collective vertex-ingestion path
// (GDI_BulkLoadVertices, the BULK workload class of §2). Every rank
// contributes a slice of specs; vertices are routed to their owner rank
// with one all-to-all, then each rank materializes its own shard locally —
// no locks are needed because bulk loading is collective and delimited by
// barriers.
//
// Work: O(|specs| · holder size); depth: O(log P) for the exchange plus the
// local build.
func (e *Engine) BulkLoadVertices(rank fabric.Rank, specs []VertexSpec) error {
	n := e.fab.Size()
	out := make([][]VertexSpec, n)
	for _, sp := range specs {
		o := e.OwnerOf(sp.AppID)
		out[o] = append(out[o], sp)
	}
	in := collective.Alltoall(e.comm, rank, out)
	// The local materialization runs under the HTAP commit gate like any
	// apply phase; the gate is scoped between the exchange and the closing
	// collective so a holder never waits on another rank.
	if e.snap != nil {
		e.htapGate.RLock()
	}
	deltas, err := e.materializeVertices(rank, in)
	if e.snap != nil {
		e.snap.AppendDeltas(rank, deltas)
		e.htapGate.RUnlock()
	}
	return e.bulkDone(rank, err)
}

// materializeVertices writes the specs routed to this rank into its shard
// and indexes them, stopping at the first vertex the block pool or the
// index cannot hold. It returns the creation deltas of the vertices it
// loaded.
func (e *Engine) materializeVertices(rank fabric.Rank, in [][]VertexSpec) ([]snapshot.Record, error) {
	bs := e.cfg.BlockSize
	var deltas []snapshot.Record
	for _, batch := range in {
		for _, sp := range batch {
			v := &holder.Vertex{AppID: sp.AppID, Labels: sp.Labels, Props: sp.Props}
			stream := holder.EncodeVertexCodec(v, bs, e.cfg.HolderCodec)
			need := len(stream) / bs
			blocks := make([]fabric.DPtr, 0, need)
			for len(blocks) < need {
				dp, err := e.store.AcquireBlock(rank, rank)
				if err != nil {
					e.releaseBlocks(rank, blocks)
					return deltas, fmt.Errorf("%w: bulk loading vertex %d: block pool exhausted", ErrNoMemory, sp.AppID)
				}
				blocks = append(blocks, dp)
			}
			for i := 1; i < need; i++ {
				holder.SetTableEntry(stream, i-1, blocks[i])
			}
			for i, dp := range blocks {
				e.store.WriteBlock(rank, dp, stream[i*bs:(i+1)*bs])
			}
			if !e.index.Insert(rank, sp.AppID, uint64(blocks[0])) {
				e.releaseBlocks(rank, blocks)
				return deltas, fmt.Errorf("%w: bulk loading vertex %d: index entries exhausted", ErrNoMemory, sp.AppID)
			}
			e.local[rank].addVertex(blocks[0], sp.AppID, sp.Labels)
			if e.snap != nil {
				deltas = append(deltas, snapshot.Record{Kind: snapshot.KindCreate, DP: blocks[0], App: sp.AppID})
			}
		}
	}
	return deltas, nil
}

func (e *Engine) releaseBlocks(rank fabric.Rank, blocks []fabric.DPtr) {
	for _, dp := range blocks {
		e.store.ReleaseBlock(rank, dp)
	}
}

// bulkDone is the closing collective of a bulk load. Every rank reaches it,
// failed or not, so one rank's error never strands the others; a rank whose
// own part succeeded returns errBulkPeer when any other rank failed. A
// failed bulk load leaves whatever the ranks loaded before they stopped.
func (e *Engine) bulkDone(rank fabric.Rank, err error) error {
	if collective.OrReduce(e.comm, rank, err != nil) && err == nil {
		return errBulkPeer
	}
	return err
}

// recDelivery routes one edge record to the rank owning its vertex.
type recDelivery struct {
	V   fabric.DPtr
	Rec holder.EdgeRec
}

// BulkLoadEdges is the collective edge-ingestion path (GDI_BulkLoadEdges).
// Records for both endpoints are built in appID space, resolved through the
// internal index with one batched lookup of all endpoints, routed to the
// owning ranks with one all-to-all, and then merged: each rank rewrites each
// of its touched vertices exactly once no matter how many edges landed on it.
//
// Work: O(distinct endpoints) DHT lookups + O(Σ touched holder blocks);
// depth: O(chain length) lookup rounds of one train per rank each, then
// O(log P) exchange + local merge.
func (e *Engine) BulkLoadEdges(rank fabric.Rank, specs []EdgeSpec) error {
	n := e.fab.Size()
	out := make([][]recDelivery, n)
	keys := make([]uint64, 0, 2*len(specs))
	for _, sp := range specs {
		keys = append(keys, sp.OriginApp, sp.TargetApp)
	}
	dps, found := e.index.LookupBatch(rank, keys)
	var err error
	for i, sp := range specs {
		if !found[2*i] {
			err = fmt.Errorf("%w: bulk edge origin %d", ErrNotFound, sp.OriginApp)
			break
		}
		if !found[2*i+1] {
			err = fmt.Errorf("%w: bulk edge target %d", ErrNotFound, sp.TargetApp)
			break
		}
		o, t := fabric.DPtr(dps[2*i]), fabric.DPtr(dps[2*i+1])
		back := holder.DirIn
		if sp.Dir == holder.DirUndirected {
			back = holder.DirUndirected
		}
		out[o.Rank()] = append(out[o.Rank()], recDelivery{V: o, Rec: holder.EdgeRec{Neighbor: t, Dir: sp.Dir, Label: sp.Label}})
		if o == t && sp.Dir == holder.DirUndirected {
			continue // undirected self-loop: a single record suffices
		}
		out[t.Rank()] = append(out[t.Rank()], recDelivery{V: t, Rec: holder.EdgeRec{Neighbor: o, Dir: back, Label: sp.Label}})
	}
	// A rank that failed still joins the exchange and the closing
	// collective, so no other rank waits on it.
	in := collective.Alltoall(e.comm, rank, out)

	// Group deliveries by vertex so each holder is rewritten once.
	byVertex := make(map[fabric.DPtr][]holder.EdgeRec)
	for _, batch := range in {
		for _, d := range batch {
			byVertex[d.V] = append(byVertex[d.V], d.Rec)
		}
	}
	order := make([]fabric.DPtr, 0, len(byVertex))
	for dp := range byVertex {
		order = append(order, dp)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	bs := e.cfg.BlockSize
	if e.snap != nil {
		e.htapGate.RLock()
	}
	for _, dp := range order {
		if err == nil {
			err = e.appendRecords(rank, dp, byVertex[dp], bs)
		}
	}
	if e.snap != nil {
		e.htapGate.RUnlock()
	}
	return e.bulkDone(rank, err)
}

// appendRecords merges records into one locally-owned vertex holder.
func (e *Engine) appendRecords(rank fabric.Rank, primary fabric.DPtr, recs []holder.EdgeRec, bs int) error {
	buf := make([]byte, bs)
	e.store.ReadBlock(rank, primary, buf)
	nb := holder.NumBlocks(buf)
	if nb < 1 {
		return fmt.Errorf("%w: bulk edge endpoint %v", ErrNotFound, primary)
	}
	blocks := []fabric.DPtr{primary}
	if nb > 1 {
		full := make([]byte, nb*bs)
		copy(full, buf)
		buf = full
		for i := 1; i < nb; i++ {
			dp := holder.TableEntry(buf, i-1)
			e.store.ReadBlock(rank, dp, buf[i*bs:(i+1)*bs])
			blocks = append(blocks, dp)
		}
	}
	v, err := holder.DecodeVertex(buf)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	v.Edges = append(v.Edges, recs...)
	stream := holder.EncodeVertexCodec(v, bs, e.cfg.HolderCodec)
	need := len(stream) / bs
	for len(blocks) < need {
		dp, err := e.store.AcquireBlock(rank, rank)
		if err != nil {
			e.releaseBlocks(rank, blocks[nb:])
			return fmt.Errorf("%w: bulk loading edges of vertex %d: block pool exhausted", ErrNoMemory, v.AppID)
		}
		blocks = append(blocks, dp)
	}
	e.releaseBlocks(rank, blocks[need:])
	blocks = blocks[:need]
	for i := 1; i < need; i++ {
		holder.SetTableEntry(stream, i-1, blocks[i])
	}
	for i, dp := range blocks {
		e.store.WriteBlock(rank, dp, stream[i*bs:(i+1)*bs])
	}
	// A bulk edge merge rewrites adjacency without changing the vertex set,
	// which the incremental fold's drift check cannot see — log it.
	if e.snap != nil {
		e.snap.AppendDeltas(rank, []snapshot.Record{{Kind: snapshot.KindUpdate, DP: primary, App: v.AppID, Edges: v.Edges}})
	}
	return nil
}
