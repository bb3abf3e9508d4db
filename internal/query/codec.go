package query

import (
	"encoding/binary"
	"fmt"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/lpg"
)

// The pattern wire format: how a driver ships a Pattern (and its DNF
// predicates) to the rank that runs it. Varint-heavy little-endian layout,
// one byte of magic and one of version so the format can evolve:
//
//	'Q' ver kind limit hasProject [project] nhops
//	  hop*: mask consPresent [version nsubs sub*]
//	  sub*:  nlabels (label absent)* nprops (ptype datatype op len operand)*
//
// Decode is total over adversarial input: every count is bounded, every
// enum checked, and a decoded pattern always re-encodes to the same bytes
// (the canonical-form property FuzzQueryPattern pins).

// Wire-format bounds. Decode rejects anything larger, so a hostile pattern
// cannot balloon memory.
const (
	codecMagic   = 'Q'
	codecVersion = 1

	// MaxHops bounds traversal depth (and Validate enforces it too).
	MaxHops = 16
	// MaxLimit bounds the row cap a pattern may request (and Validate
	// enforces it too).
	MaxLimit = 1 << 20
	// MaxSubs, MaxConds and MaxOperand bound one predicate's DNF size.
	MaxSubs    = 16
	MaxConds   = 16
	MaxOperand = 1 << 12

	maxConsVersion = 1 << 62
)

// Encode appends the pattern's canonical wire form to dst.
func Encode(dst []byte, p *Pattern) []byte {
	dst = append(dst, codecMagic, codecVersion, byte(p.Kind))
	dst = binary.AppendUvarint(dst, uint64(p.Limit))
	if p.HasProject {
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(p.Project))
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Hops)))
	for _, h := range p.Hops {
		dst = append(dst, byte(h.Mask))
		if h.Cons == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, h.Cons.Version)
		dst = binary.AppendUvarint(dst, uint64(len(h.Cons.Subs)))
		for _, sub := range h.Cons.Subs {
			dst = binary.AppendUvarint(dst, uint64(len(sub.Labels)))
			for _, lc := range sub.Labels {
				dst = binary.AppendUvarint(dst, uint64(lc.Label))
				if lc.Absent {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
			dst = binary.AppendUvarint(dst, uint64(len(sub.Props)))
			for _, pc := range sub.Props {
				dst = binary.AppendUvarint(dst, uint64(pc.PType))
				dst = append(dst, byte(pc.Datatype), byte(pc.Op))
				dst = binary.AppendUvarint(dst, uint64(len(pc.Operand)))
				dst = append(dst, pc.Operand...)
			}
		}
	}
	return dst
}

// decoder walks the wire form with bounds checking.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("query: decode: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("flag byte not 0/1 at %d", d.off-1)
		return false
	}
}

func (d *decoder) uvarint(max uint64, what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint (%s) at %d", what, d.off)
		return 0
	}
	d.off += n
	if v > max {
		d.fail("%s %d exceeds %d", what, v, max)
		return 0
	}
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated operand at %d", d.off)
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+n]...)
	d.off += n
	return b
}

// Decode parses one canonical pattern. It rejects trailing bytes, so
// Decode∘Encode is the identity in both directions.
func Decode(buf []byte) (*Pattern, error) {
	d := &decoder{buf: buf}
	if d.byte() != codecMagic || d.byte() != codecVersion {
		d.fail("bad magic/version")
	}
	p := &Pattern{Kind: Kind(d.byte())}
	if d.err == nil && p.Kind > Path {
		d.fail("unknown kind %d", uint8(p.Kind))
	}
	p.Limit = int(d.uvarint(MaxLimit, "limit"))
	if p.HasProject = d.bool(); p.HasProject {
		p.Project = lpg.PTypeID(d.uvarint(1<<32-1, "project ptype"))
	}
	nhops := int(d.uvarint(MaxHops, "hop count"))
	for i := 0; i < nhops && d.err == nil; i++ {
		h := Hop{Mask: core.DirMask(d.byte())}
		if d.err == nil && (h.Mask == 0 || h.Mask&^core.MaskAll != 0) {
			d.fail("hop %d: invalid mask %#x", i, uint8(h.Mask))
		}
		if d.bool() {
			h.Cons = d.constraint(i)
		}
		p.Hops = append(p.Hops, h)
	}
	if d.err == nil && d.off != len(buf) {
		d.fail("%d trailing bytes", len(buf)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (d *decoder) constraint(hop int) *constraint.Constraint {
	c := &constraint.Constraint{Version: d.uvarint(maxConsVersion, "constraint version")}
	nsubs := int(d.uvarint(MaxSubs, "subconstraint count"))
	for s := 0; s < nsubs && d.err == nil; s++ {
		var sub constraint.Subconstraint
		nlabels := int(d.uvarint(MaxConds, "label cond count"))
		for i := 0; i < nlabels && d.err == nil; i++ {
			sub.Labels = append(sub.Labels, constraint.LabelCond{
				Label:  lpg.LabelID(d.uvarint(1<<32-1, "label")),
				Absent: d.bool(),
			})
		}
		nprops := int(d.uvarint(MaxConds, "prop cond count"))
		for i := 0; i < nprops && d.err == nil; i++ {
			pc := constraint.PropCond{
				PType:    lpg.PTypeID(d.uvarint(1<<32-1, "ptype")),
				Datatype: lpg.Datatype(d.byte()),
				Op:       constraint.Op(d.byte()),
			}
			if d.err == nil && pc.Op > constraint.OpPrefix {
				d.fail("hop %d: unknown op %d", hop, uint8(pc.Op))
			}
			pc.Operand = d.bytes(int(d.uvarint(MaxOperand, "operand length")))
			sub.Props = append(sub.Props, pc)
		}
		c.Subs = append(c.Subs, sub)
	}
	return c
}
