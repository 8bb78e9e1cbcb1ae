package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pmemspec/internal/sim"
)

// TestSnapshotStableOrder builds the same logical registry twice with
// different insertion orders and requires byte-identical JSON — the
// property the -parallel 1 vs 8 metrics cmp in ci.sh rests on.
func TestSnapshotStableOrder(t *testing.T) {
	build := func(reversed bool) Snapshot {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("wpq", "accepts").Add(3) },
			func() { r.Counter("specbuf", "load_misspecs").Add(1) },
			func() { r.Gauge("ppath", "peak_outstanding").Observe(7) },
			func() { r.Counter("wpq", "coalesced").Add(2) },
			func() { r.Histogram("wpq", "occupancy", []int64{1, 4, 16}).Observe(5) },
			func() { r.Gauge("wpq", "peak_occupancy").Observe(4) },
		}
		if reversed {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build(false).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshot JSON depends on insertion order:\n%s\nvs\n%s", a.String(), b.String())
	}
	// The order must be the documented (component, name, kind) sort.
	snap := build(false)
	for i := 1; i < len(snap); i++ {
		if snap[i].less(snap[i-1]) {
			t.Fatalf("snapshot not sorted at %d: %+v before %+v", i, snap[i-1], snap[i])
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "y")
	c.Inc()
	c.Add(5)
	c.Set(9)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("x", "y")
	g.Observe(10)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("x", "y", []int64{1})
	h.Observe(3)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}

	var tl *Timeline
	tl.Instant(1, 0, "c", "n")
	tl.Span(1, 2, 0, "c", "n")
	tl.InstantArg(1, 0, "c", "n", "a", 1)
	tl.SpanArg(1, 2, 0, "c", "n", "a", 1)
	if tl.Len() != 0 || tl.Events() != nil {
		t.Fatal("nil timeline recorded events")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", "lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	m, ok := r.Snapshot().Get("c", "lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if m.Count != 6 || m.Sum != 1+10+11+100+101+5000 {
		t.Fatalf("count/sum wrong: %+v", m)
	}
	want := []uint64{2, 2, 2} // ≤10, ≤100, +Inf
	for i, b := range m.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d: got %d want %d", i, b.Count, want[i])
		}
	}
	if !m.Buckets[2].Inf {
		t.Fatal("last bucket not marked Inf")
	}
}

func TestMergeSemantics(t *testing.T) {
	a := NewRegistry()
	a.Counter("c", "n").Add(3)
	a.Gauge("c", "g").Observe(5)
	a.Histogram("c", "h", []int64{10}).Observe(4)
	b := NewRegistry()
	b.Counter("c", "n").Add(4)
	b.Counter("c", "only_b").Add(1)
	b.Gauge("c", "g").Observe(2)
	b.Histogram("c", "h", []int64{10}).Observe(40)

	m := Merge(a.Snapshot(), b.Snapshot())
	if v, _ := m.Get("c", "n"); v.Value != 7 {
		t.Fatalf("counter merge: got %d want 7", v.Value)
	}
	if v, _ := m.Get("c", "only_b"); v.Value != 1 {
		t.Fatalf("one-sided counter lost: %+v", v)
	}
	if v, _ := m.Get("c", "g"); v.Max != 5 {
		t.Fatalf("gauge merge: got %d want 5", v.Max)
	}
	h, _ := m.Get("c", "h")
	if h.Count != 2 || h.Buckets[0].Count != 1 || h.Buckets[1].Count != 1 {
		t.Fatalf("histogram merge wrong: %+v", h)
	}

	// Merge must not mutate its inputs' buckets.
	ha, _ := a.Snapshot().Get("c", "h")
	if ha.Buckets[0].Count != 1 {
		t.Fatalf("merge aliased input buckets: %+v", ha)
	}
}

func TestGridStableJSON(t *testing.T) {
	build := func(order []string) *bytes.Buffer {
		g := NewGrid()
		for _, cell := range order {
			r := NewRegistry()
			r.Counter("c", "ops").Add(uint64(len(cell)))
			parts := strings.SplitN(cell, "/", 2)
			g.Add(parts[0], parts[1], r.Snapshot())
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a := build([]string{"pmemspec/queue", "intel/queue", "pmemspec/tree", "intel/tree"})
	b := build([]string{"intel/tree", "pmemspec/tree", "intel/queue", "pmemspec/queue"})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("grid JSON depends on add order:\n%s\nvs\n%s", a.String(), b.String())
	}
	var doc struct {
		Cells []GridCell `json:"cells"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("grid JSON invalid: %v", err)
	}
	if len(doc.Cells) != 4 || doc.Cells[0].Design != "intel" || doc.Cells[0].Workload != "queue" {
		t.Fatalf("grid cell order wrong: %+v", doc.Cells)
	}
}

func TestGridAddMerges(t *testing.T) {
	g := NewGrid()
	r1 := NewRegistry()
	r1.Counter("c", "ops").Add(2)
	r2 := NewRegistry()
	r2.Counter("c", "ops").Add(3)
	g.Add("d", "w", r1.Snapshot())
	g.Add("d", "w", r2.Snapshot())
	if v, _ := g.Cell("d", "w").Get("c", "ops"); v.Value != 5 {
		t.Fatalf("grid cell merge: got %d want 5", v.Value)
	}
}

func TestWriteTrace(t *testing.T) {
	tl := NewTimeline()
	tl.Span(sim.NS(10), sim.NS(20), 1, "barrier", "sfence")
	tl.Instant(sim.NS(5), LaneOS, "misspec", "stale_load")
	tl.InstantArg(sim.NS(7), LaneOS, "misspec", "ooo_persist", "block", 0x40)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []NamedTimeline{{Name: "PMEM-Spec/queue", TL: tl}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Ts   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Tid  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, buf.String())
	}
	// process_name meta + run-name instant + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(doc.TraceEvents))
	}
	// Events are time-sorted after the two metadata entries.
	if doc.TraceEvents[2].Name != "stale_load" || doc.TraceEvents[3].Name != "ooo_persist" {
		t.Fatalf("events not time-sorted: %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[3].Args["block"] != 0x40 {
		t.Fatalf("instant arg lost: %+v", doc.TraceEvents[3])
	}
	span := doc.TraceEvents[4]
	if span.Ph != "X" || span.Ts != 0.01 || span.Dur != 0.01 {
		// 10 ns = 0.01 µs at 2 GHz cycle stamping.
		t.Fatalf("span conversion wrong: %+v", span)
	}

	// Byte-stability: serializing the same timeline twice is identical.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, []NamedTimeline{{Name: "PMEM-Spec/queue", TL: tl}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace serialization not byte-stable")
	}
}
