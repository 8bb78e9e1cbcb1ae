package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"pmemspec/internal/mc"
)

// TestFoldChargesInnermostModuleFrame: runtime work counts against the
// module frame that asked for it, samples with no module frame are
// runtime's, packages outside the named layers are "other", and the
// shares cover every layer and sum to 1.
func TestFoldChargesInnermostModuleFrame(t *testing.T) {
	stacks := []stack{
		{frames: []string{"runtime.memclrNoHeapPointers", "pmemspec/internal/mem.NewImage",
			"pmemspec/internal/mem.NewSpace", "pmemspec/internal/machine.New"}, weight: 4},
		{frames: []string{"runtime.memmove", "pmemspec/internal/mem.(*Image).Clone",
			"pmemspec/internal/machine.(*Machine).SyncPersistedToArch"}, weight: 2},
		{frames: []string{"pmemspec/internal/sim.(*Kernel).Run", "pmemspec/internal/harness.Run"}, weight: 1},
		{frames: []string{"pmemspec/internal/harness.RunAll[go.shape.struct {}].func1", "main.main"}, weight: 1},
		{frames: []string{"pmemspec/internal/analysis/dataflow.(*Solver).Run"}, weight: 1},
		{frames: []string{"runtime.gcBgMarkWorker"}, weight: 1},
	}
	want := map[string]float64{"mem": 0.6, "sim": 0.1, "harness": 0.1, "other": 0.1, "runtime": 0.1}
	shares := foldStacks(stacks)
	if len(shares) != len(layers) {
		t.Errorf("%d shares for %d layers", len(shares), len(layers))
	}
	sum := 0.0
	for _, l := range layers {
		got, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if math.Abs(got-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got, want[l])
		}
		sum += got
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	for l, s := range foldStacks(nil) {
		if s != 0 {
			t.Errorf("empty profile: %s share %v", l, s)
		}
	}
}

// Minimal protobuf encoders for hand-built profiles.
func pbKey(num, wire int) []byte { return binary.AppendUvarint(nil, uint64(num<<3|wire)) }

func pbVarint(num int, v uint64) []byte { return binary.AppendUvarint(pbKey(num, 0), v) }

func pbBytes(num int, b []byte) []byte {
	return append(binary.AppendUvarint(pbKey(num, 2), uint64(len(b))), b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestParseProfileInlinedAndPacked decodes a hand-built profile with an
// inlined location (innermost line first) and both packed and unpacked
// repeated fields, as runtime/pprof writes them.
func TestParseProfileInlinedAndPacked(t *testing.T) {
	names := []string{"", "runtime.memclrNoHeapPointers", "pmemspec/internal/mem.NewImage", "main.main"}
	var p []byte
	// Sample: packed location ids, unpacked values (count, cpu ns).
	p = append(p, pbBytes(2, concat(pbBytes(1, packed(1, 2)), pbVarint(2, 5), pbVarint(2, 50_000_000)))...)
	// Sample: unpacked location id, packed values.
	p = append(p, pbBytes(2, concat(pbVarint(1, 2), pbBytes(2, packed(3, 30_000_000))))...)
	// Location 1: memclr inlined into NewImage; location 2: main.main.
	p = append(p, pbBytes(4, concat(pbVarint(1, 1), pbVarint(3, 0x401000),
		pbBytes(4, concat(pbVarint(1, 1), pbVarint(2, 10))), pbBytes(4, pbVarint(1, 2))))...)
	p = append(p, pbBytes(4, concat(pbVarint(1, 2), pbBytes(4, pbVarint(1, 3))))...)
	for id := uint64(1); id <= 3; id++ {
		p = append(p, pbBytes(5, concat(pbVarint(1, id), pbVarint(2, id)))...)
	}
	for _, s := range names {
		p = append(p, pbBytes(6, []byte(s))...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{frames: []string{"runtime.memclrNoHeapPointers", "pmemspec/internal/mem.NewImage", "main.main"}, weight: 5},
		{frames: []string{"main.main"}, weight: 3},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Fatalf("stacks = %+v, want %+v", stacks, want)
	}
	shares := foldStacks(stacks)
	if shares["mem"] != 5.0/8 || shares["runtime"] != 3.0/8 {
		t.Errorf("mem %v runtime %v, want 5/8 and 3/8", shares["mem"], shares["runtime"])
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile parsed")
	}
}

// TestParseProfileFromRuntime: the decoder reads what runtime/pprof
// actually writes.
func TestParseProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range foldStacks(stacks) {
		sum += s
	}
	if len(stacks) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d samples fold to shares summing to %v", len(stacks), sum)
	}
}

// TestTailPercentile: the tail is the highest ladder percentile with at
// least ten samples beyond its nearest rank.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}

	sp := newSpans()
	for i := 40; i >= 1; i-- {
		sp.add("x_ms", time.Duration(i)*time.Millisecond)
	}
	p50, tail, pct, n := sp.summary("x_ms")
	if p50 != 20 || tail != 30 || pct != 75 || n != 40 {
		t.Errorf("summary = p50 %v, tail %v at p%v, n %d; want 20, 30 at p75, 40", p50, tail, pct, n)
	}
	if p50, tail, pct, n := sp.summary("never_ms"); p50 != 0 || tail != 0 || pct != 0 || n != 0 {
		t.Errorf("unrecorded span = %v %v %v %d, want zeros", p50, tail, pct, n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestItemAndFailCounting covers the rules that turn pass outcomes into
// attempted/failed counts and the end-to-end shares.
func TestItemAndFailCounting(t *testing.T) {
	ph := phase{items: 10, failed: 2, wall: 2 * time.Second,
		perPass: [][2]int{{5, 1}, {5, 1}}, digests: []string{"a", "a"}}

	res := newResult(ph, nil)
	if !res.Correct || res.Attempted != 10 || res.Failed != 2 {
		t.Errorf("clean run: %+v", res)
	}
	got := map[string]float64{}
	for _, m := range endToEnd(ph, res, 0.01, 100) {
		got[m.name] = m.Value
	}
	if got["items_per_s"] != 5 || got["ok_share"] != 0.8 {
		t.Errorf("items_per_s %v ok_share %v, want 5 and 0.8", got["items_per_s"], got["ok_share"])
	}

	// A failed check fails every item.
	res = newResult(ph, []string{"digest moved"})
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("failed check: %+v", res)
	}
	for _, m := range endToEnd(ph, res, 0.01, 100) {
		if m.name == "ok_share" && m.Value != 0 {
			t.Errorf("ok_share after a failed check = %v", m.Value)
		}
	}

	want := goldenReport{SHA256: "a", Attempted: 5, Failed: 1}
	if p := verify(ph, []int64{1, 1}, 1, &want); len(p) != 0 {
		t.Errorf("matching golden: %v", p)
	}
	for name, w := range map[string]goldenReport{
		"digest":   {SHA256: "b", Attempted: 5, Failed: 1},
		"attempts": {SHA256: "a", Attempted: 6, Failed: 1},
		"failures": {SHA256: "a", Attempted: 5, Failed: 0},
	} {
		if p := verify(ph, []int64{1, 1}, 1, &w); len(p) != 1 {
			t.Errorf("%s mismatch: %v", name, p)
		}
	}
	moved := ph
	moved.digests = []string{"a", "b"}
	if p := verify(moved, []int64{1, 1}, 1, nil); len(p) != 1 {
		t.Errorf("repeat pass at the golden seed with another report: %v", p)
	}
	if p := verify(moved, []int64{1, 7}, 1, nil); len(p) != 0 {
		t.Errorf("pass at another seed compared to the golden pass: %v", p)
	}

	for _, tc := range []struct {
		name string
		cell mc.CellResult
		want bool
	}{
		{"clean", mc.CellResult{Static: true, Expected: true}, false},
		{"refuted", mc.CellResult{Static: true, Expected: true, Refuted: true}, true},
		{"mismatch", mc.CellResult{Static: false, Expected: true}, true},
		{"failures", mc.CellResult{Failures: []string{"torn image"}}, true},
	} {
		if got := cellFailed(tc.cell); got != tc.want {
			t.Errorf("%s: cellFailed = %v", tc.name, got)
		}
	}

	grid, _ := benchByName("grid")
	crash, _ := benchByName("crash")
	if s := passSeeds(grid, 1, 7, 3); !reflect.DeepEqual(s, []int64{1, 7, 8}) {
		t.Errorf("grid seeds = %v", s)
	}
	if s := passSeeds(crash, 1, 7, 2); !reflect.DeepEqual(s, []int64{1, 1}) {
		t.Errorf("crash seeds = %v", s)
	}
	if n := passCount(grid, 18); n != 5 {
		t.Errorf("grid passes for 18 s = %d", n)
	}
	if _, err := benchByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// tinySize exercises every code path in a few seconds per workload.
var tinySize = size{
	gridThreads: 2, gridOps: 6,
	crashThreads: 2, crashOps: 6, crashPoints: 2, crashBoundaryBudget: 2,
	mcPatterns: 2, mcMaxSchedules: 3,
}

// benchmarkSpec is the part of BENCHMARK.json the code must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func namesUnits(ms []namedMetric) [][2]string {
	var out [][2]string
	for _, m := range ms {
		out = append(out, [2]string{m.name, m.Unit})
	}
	return out
}

func specNamesUnits(ms []struct{ Name, Unit string }) [][2]string {
	var out [][2]string
	for _, m := range ms {
		out = append(out, [2]string{m.Name, m.Unit})
	}
	return out
}

// TestSmokeTiny runs every workload at tiny size, untraced and traced,
// and checks the counts, the determinism of repeated passes, the spans
// each workload records, and that the metrics match BENCHMARK.json.
func TestSmokeTiny(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if i < len(benches) && w.Name != benches[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, benches[i].name)
		}
	}

	spanOf := map[string][]string{
		"grid":  {"harness.run_ms"},
		"crash": {"harness.discover_ms", "harness.trial_ms"},
		"mc":    {"mc.cell_ms"},
	}
	for _, b := range benches {
		t.Run(b.name, func(t *testing.T) {
			seeds := passSeeds(b, 1, 1, 2)
			passes := []pass{b.prepare(tinySize, seeds[0]), b.prepare(tinySize, seeds[1])}
			untraced, err := runPasses(passes, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if untraced.items == 0 || untraced.failed > untraced.items {
				t.Fatalf("items %d failed %d", untraced.items, untraced.failed)
			}
			if p := verify(untraced, seeds, 1, nil); len(p) != 0 {
				t.Errorf("repeated pass not deterministic: %v", p)
			}
			sp := newSpans()
			traced, shares, err := runTraced(passes, 2, sp)
			if err != nil {
				t.Fatal(err)
			}
			if p := sameOutcomes(untraced, traced); len(p) != 0 {
				t.Error(p)
			}
			recorded := 0
			for _, s := range spanOf[b.name] {
				_, _, _, n := sp.summary(s)
				if n == 0 {
					t.Errorf("span %s not recorded", s)
				}
				recorded += n
			}
			// Every item is one timed call, except on crash, where every
			// discovery call is timed but only a failed one is an item.
			if b.name != "crash" && recorded != traced.items {
				t.Errorf("%d spans for %d items", recorded, traced.items)
			}
			if err := sampleConstruction(sp, 2); err != nil {
				t.Fatal(err)
			}
			if got, want := namesUnits(perLayer(b, untraced, traced, sp, shares)), specNamesUnits(spec.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
			}
			res := newResult(untraced, nil)
			if got, want := namesUnits(endToEnd(untraced, res, 0.01, 100)), specNamesUnits(spec.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
			}
		})
	}
}
