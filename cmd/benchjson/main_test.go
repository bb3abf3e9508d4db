package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
BenchmarkRebalanceAblation/static-8         	       1	5000000 ns/op	       120000 queries/s
BenchmarkRebalanceAblation/rebalanced-8     	       1	3000000 ns/op	       180000 queries/s
BenchmarkReplicationAblation/unreplicated-8 	       1	4000000 ns/op	       100000 queries/s
BenchmarkReplicationAblation/replicated-k3-8	       1	2000000 ns/op	       210000 queries/s
BenchmarkCacheAblation/locked-uncached-8    	     100	  40000 ns/op
BenchmarkCodecAblation/v1-8                 	      10	6000000 ns/op	       640.0 bytes/op
BenchmarkCodecAblation/v2-8                 	      10	3000000 ns/op	       400.0 bytes/op
BenchmarkHTAPAblation-8                     	       1	9000000 ns/op
BenchmarkQueryAblation/naive-8              	       1	8000000 ns/op	        50 queries/s	        90.0 trains/op
BenchmarkQueryAblation/compiled-8           	       1	2000000 ns/op	       200 queries/s	        12.0 trains/op
BenchmarkLookupAblation/scalar-8           	       1	9000000 ns/op	      5361 trains/op
BenchmarkLookupAblation/batched-8          	       1	1500000 ns/op	        45.00 trains/op
BenchmarkUngated/only-8                     	    1000	   1000 ns/op
`

func parseSample(t *testing.T) map[string]*report {
	t.Helper()
	reports, order, err := parse(strings.NewReader(sampleBench), "abc123")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("parsed %d benchmarks (%v), want 8", len(order), order)
	}
	return reports
}

func TestParse(t *testing.T) {
	reports := parseSample(t)
	r := reports["RebalanceAblation"]
	if r == nil {
		t.Fatal("RebalanceAblation not parsed")
	}
	if r.Commit != "abc123" {
		t.Errorf("commit = %q, want abc123", r.Commit)
	}
	if got := r.NsPerOp["static"]; got != 5000000 {
		t.Errorf("static ns/op = %v, want 5000000", got)
	}
	if got := r.Metrics["rebalanced"]["queries/s"]; got != 180000 {
		t.Errorf("rebalanced queries/s = %v, want 180000", got)
	}
	if got := reports["HTAPAblation"].NsPerOp[""]; got != 9000000 {
		t.Errorf("HTAPAblation ns/op = %v, want 9000000 under the empty variant key", got)
	}
}

func TestApplyGateRatios(t *testing.T) {
	reports := parseSample(t)

	r := reports["RebalanceAblation"]
	applyGate(r)
	if r.Gate == "" || r.Gate == "skipped" {
		t.Errorf("RebalanceAblation gate = %q, want a computed gate", r.Gate)
	}
	if r.GateRatio != 1.5 {
		t.Errorf("RebalanceAblation ratio = %v, want 1.5", r.GateRatio)
	}

	r = reports["ReplicationAblation"]
	applyGate(r)
	if r.Gate != "queries/s replicated-k3 / unreplicated" {
		t.Errorf("ReplicationAblation gate = %q", r.Gate)
	}
	if r.GateRatio != 2.1 {
		t.Errorf("ReplicationAblation ratio = %v, want 2.1", r.GateRatio)
	}

	// CodecAblation gates on the weakest of its two ratios: ns/op is 2.0x
	// but bytes/op is only 1.6x, so the bytes ratio is the verdict.
	r = reports["CodecAblation"]
	applyGate(r)
	if r.Gate != "min: bytes/op v1 / v2" {
		t.Errorf("CodecAblation gate = %q", r.Gate)
	}
	if r.GateRatio != 1.6 {
		t.Errorf("CodecAblation ratio = %v, want 1.6", r.GateRatio)
	}

	// QueryAblation reports only ns/op and train metrics — no bytes/op. Its
	// composite gate must drop the absent traffic part and gate on the ns
	// ratio alone, never divide by the part that is not there.
	r = reports["QueryAblation"]
	applyGate(r)
	if r.Gate != "min: ns/op naive / compiled" {
		t.Errorf("QueryAblation gate = %q", r.Gate)
	}
	if r.GateRatio != 4.0 {
		t.Errorf("QueryAblation ratio = %v, want 4.0", r.GateRatio)
	}

	r = reports["LookupAblation"]
	applyGate(r)
	if r.Gate != "ns/op scalar / batched" || r.GateRatio != 6.0 {
		t.Errorf("LookupAblation gate = %q ratio %v, want ns/op scalar / batched 6.0", r.Gate, r.GateRatio)
	}
	if got := r.Metrics["batched"]["trains/op"]; got != 45 {
		t.Errorf("LookupAblation batched trains/op = %v, want 45", got)
	}

	r = reports["Ungated"]
	applyGate(r)
	if r.Gate != "" || r.GateRatio != 0 {
		t.Errorf("ungated benchmark got gate %q ratio %v", r.Gate, r.GateRatio)
	}
}

// TestApplyGateSkipsDegenerateBaselines is the regression test for the
// divide-by-zero gate bug: a run where the baseline variant is missing (or a
// baseline metric never reported) must yield the explicit verdict "skipped",
// never a 0 or +Inf ratio — +Inf is unrepresentable in JSON, and a silent 0
// reads as a catastrophic regression.
func TestApplyGateSkipsDegenerateBaselines(t *testing.T) {
	reports := parseSample(t)

	// CacheAblation ran only its baseline variant: the ns/op gate divides by
	// an absent optimized variant.
	r := reports["CacheAblation"]
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("CacheAblation gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// HTAPAblation ran without its makespan-x metric (the closure used to
	// emit a labelled gate with ratio 0).
	r = reports["HTAPAblation"]
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("HTAPAblation gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// A composite gate whose metric part is entirely absent — neither
	// variant reported bytes/op — gates on the parts that did run: the
	// absent axis is dropped, not divided by, and not allowed to silence
	// the ns ratio.
	r = &report{Name: "CodecAblation", NsPerOp: map[string]float64{"v1": 6000000, "v2": 3000000}}
	applyGate(r)
	if r.Gate != "min: ns/op v1 / v2" || r.GateRatio != 2.0 {
		t.Errorf("CodecAblation without bytes/op: gate = %q ratio %v, want ns-only/2.0", r.Gate, r.GateRatio)
	}

	// But a *degenerate* metric part — one variant reported bytes/op, the
	// other did not — still poisons the whole composite: half a metric is
	// evidence of a broken run, not of an intentionally unreported axis.
	r = &report{Name: "CodecAblation",
		NsPerOp: map[string]float64{"v1": 6000000, "v2": 3000000},
		Metrics: map[string]map[string]float64{"v1": {"bytes/op": 640}}}
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("CodecAblation with half a bytes/op: gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// A query benchmark run where the compiled variant never ran at all:
	// every part is absent, so the whole gate is skipped.
	r = &report{Name: "QueryAblation", NsPerOp: map[string]float64{"naive": 8000000}}
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("QueryAblation naive-only: gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// A zero baseline metric must not produce +Inf.
	r = &report{Name: "ReplicationAblation", NsPerOp: map[string]float64{"unreplicated": 1, "replicated-k3": 1},
		Metrics: map[string]map[string]float64{
			"unreplicated":  {"queries/s": 0},
			"replicated-k3": {"queries/s": 50000},
		}}
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("zero baseline: gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}
}

// TestParseFoldsRepeatedRunsToMedians: under -count=N every variant prints N
// lines; each value reported is the median of its runs.
func TestParseFoldsRepeatedRunsToMedians(t *testing.T) {
	in := `BenchmarkQueryAblation/naive-8    	1	9000000 ns/op	40 queries/s
BenchmarkQueryAblation/naive-8    	1	7000000 ns/op	60 queries/s
BenchmarkQueryAblation/naive-8    	1	8000000 ns/op	50 queries/s
BenchmarkQueryAblation/compiled-8 	1	2000000 ns/op	200 queries/s
BenchmarkQueryAblation/compiled-8 	1	3000000 ns/op	100 queries/s
`
	reports, _, err := parse(strings.NewReader(in), "abc123")
	if err != nil {
		t.Fatal(err)
	}
	r := reports["QueryAblation"]
	if got := r.NsPerOp["naive"]; got != 8000000 {
		t.Errorf("naive ns/op = %v, want the median 8000000", got)
	}
	if got := r.Metrics["naive"]["queries/s"]; got != 50 {
		t.Errorf("naive queries/s = %v, want the median 50", got)
	}
	if got := r.NsPerOp["compiled"]; got != 2500000 {
		t.Errorf("compiled ns/op = %v, want the mean of the middle two 2500000", got)
	}
	applyGate(r)
	if r.GateRatio != 3.2 {
		t.Errorf("gate ratio = %v, want 3.2 from the medians", r.GateRatio)
	}
}
