package query

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gdi-go/gdi/internal/constraint"
	"github.com/gdi-go/gdi/internal/core"
	"github.com/gdi-go/gdi/internal/lpg"
)

// samplePatterns covers every codec branch: all three kinds, present/absent
// predicates, projection, limits, and multi-sub DNF constraints.
func samplePatterns() []*Pattern {
	pred := &constraint.Constraint{
		Version: 42,
		Subs: []constraint.Subconstraint{
			{
				Labels: []constraint.LabelCond{{Label: 3}, {Label: 9, Absent: true}},
				Props: []constraint.PropCond{{
					PType: 1, Datatype: 2, Op: constraint.OpGe, Operand: []byte{1, 2, 3, 4},
				}},
			},
			{Props: []constraint.PropCond{{PType: 7, Op: constraint.OpExists}}},
		},
	}
	return []*Pattern{
		{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}}},
		{Kind: KHop, Hops: []Hop{{Mask: core.MaskAll}, {Mask: core.MaskIn, Cons: pred}}, Limit: 20},
		{Kind: Triangle},
		{Kind: Triangle, Hops: []Hop{{Mask: core.MaskAll, Cons: pred}}},
		{Kind: Path, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskUndirected}, {Mask: core.MaskAll, Cons: pred}},
			Limit: 5, Project: 11, HasProject: true},
	}
}

func TestPatternCodecRoundTrip(t *testing.T) {
	for i, p := range samplePatterns() {
		enc := Encode(nil, p)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("pattern %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("pattern %d round trip diverged:\nin:  %+v\nout: %+v", i, p, got)
		}
		if re := Encode(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("pattern %d re-encode is not canonical", i)
		}
	}
}

func TestPatternDecodeRejects(t *testing.T) {
	good := Encode(nil, samplePatterns()[1])
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte{'X'}, good[1:]...),
		"bad version":    append([]byte{'Q', 99}, good[2:]...),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"bad kind":       {codecMagic, codecVersion, 99, 0, 0, 0},
		"zero mask":      {codecMagic, codecVersion, byte(KHop), 0, 0, 1, 0, 0},
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: decode accepted bad input", name)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	bad := []*Pattern{
		{Kind: KHop}, // no hops
		{Kind: Path}, // no hops
		{Kind: Kind(77), Hops: []Hop{{Mask: core.MaskOut}}}, // unknown kind
		{Kind: KHop, Hops: []Hop{{Mask: 0}}},                // zero mask
		{Kind: KHop, Hops: []Hop{{Mask: 0x80}}},             // out-of-range mask
		{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}}, Limit: -1},
		{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut}}, Limit: MaxLimit + 1},
		{Kind: KHop, Hops: []Hop{{Mask: core.MaskOut, Cons: &constraint.Constraint{Version: maxConsVersion + 1}}}},
		{Kind: Triangle, Hops: []Hop{{Mask: core.MaskOut}, {Mask: core.MaskOut}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("pattern %d: Validate accepted %+v", i, p)
		}
	}
	tooDeep := &Pattern{Kind: KHop}
	for i := 0; i <= MaxHops; i++ {
		tooDeep.Hops = append(tooDeep.Hops, Hop{Mask: core.MaskOut})
	}
	if err := tooDeep.Validate(); err == nil {
		t.Error("Validate accepted a pattern over MaxHops")
	}
}

// TestValidatedPatternsRoundTrip: every pattern that passes Validate must
// encode to bytes Decode accepts, and those bytes must be canonical. The
// generator straddles every wire-format bound (limit, hop count, DNF size,
// operand length, op, constraint version), so a bound Decode enforces but
// Validate misses shows up as a validated pattern that fails to decode.
func TestValidatedPatternsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	around := func(bound int) int { return bound - 1 + rng.Intn(3) } // bound-1, bound, bound+1
	valid, rejected := 0, 0
	for i := 0; i < 2000; i++ {
		p := &Pattern{Kind: Kind(rng.Intn(3)), Limit: rng.Intn(64)}
		if rng.Intn(4) == 0 {
			p.Limit = around(MaxLimit)
		}
		if rng.Intn(2) == 0 {
			p.Project, p.HasProject = lpg.PTypeID(rng.Uint32()), true
		}
		nhops := 1 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			nhops = around(MaxHops)
		}
		for h := 0; h < nhops; h++ {
			hop := Hop{Mask: core.DirMask(1 + rng.Intn(int(core.MaskAll)))}
			if rng.Intn(2) == 0 {
				hop.Cons = randomConstraint(rng, around)
			}
			p.Hops = append(p.Hops, hop)
		}
		if p.Validate() != nil {
			rejected++
			continue
		}
		valid++
		enc := Encode(nil, p)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("pattern %d validates but its encoding does not decode: %v\n%+v", i, err, p)
		}
		if re := Encode(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("pattern %d: re-encode is not canonical", i)
		}
	}
	if valid == 0 || rejected == 0 {
		t.Fatalf("generator produced %d valid and %d rejected patterns; want both", valid, rejected)
	}
}

// randomConstraint draws a DNF predicate whose sizes sit mostly inside the
// wire bounds and sometimes on either side of one.
func randomConstraint(rng *rand.Rand, around func(int) int) *constraint.Constraint {
	c := &constraint.Constraint{Version: uint64(rng.Intn(100))}
	if rng.Intn(16) == 0 {
		c.Version = maxConsVersion - 1 + uint64(rng.Intn(3))
	}
	nsubs := rng.Intn(3)
	if rng.Intn(16) == 0 {
		nsubs = around(MaxSubs)
	}
	for s := 0; s < nsubs; s++ {
		var sub constraint.Subconstraint
		nlabels, nprops := rng.Intn(3), rng.Intn(3)
		if rng.Intn(32) == 0 {
			nlabels = around(MaxConds)
		}
		if rng.Intn(32) == 0 {
			nprops = around(MaxConds)
		}
		for l := 0; l < nlabels; l++ {
			sub.Labels = append(sub.Labels, constraint.LabelCond{Label: lpg.LabelID(rng.Uint32()), Absent: rng.Intn(2) == 0})
		}
		for q := 0; q < nprops; q++ {
			pc := constraint.PropCond{
				PType:    lpg.PTypeID(rng.Uint32()),
				Datatype: lpg.Datatype(rng.Intn(256)),
				Op:       constraint.Op(rng.Intn(int(constraint.OpPrefix) + 1)),
				Operand:  make([]byte, rng.Intn(8)),
			}
			if rng.Intn(64) == 0 {
				pc.Op = constraint.OpPrefix + 1
			}
			if rng.Intn(64) == 0 {
				pc.Operand = make([]byte, around(MaxOperand))
			}
			sub.Props = append(sub.Props, pc)
		}
		c.Subs = append(c.Subs, sub)
	}
	return c
}
