package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(p90MinOps-1), 0.9); err == nil {
		t.Fatalf("p90 of %d samples accepted", p90MinOps-1)
	}
	got, err := percentile(seq(p90MinOps), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (nearest rank, 10 samples beyond)", got)
	}
	if got, _ := percentile(seq(1000), 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3.1, 2.2, 9.9, 4.4}, 2.425, 8.525},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread(seq(10)); !near(s, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func TestNormalisation(t *testing.T) {
	same := newNormaliser(refRate0)
	if same.time(3.5) != 3.5 || same.rate(120) != 120 {
		t.Fatal("a host of reference speed must read raw values")
	}
	fast := newNormaliser(2 * refRate0) // a host twice as fast
	if !near(fast.time(1.0), 2.0) {
		t.Errorf("time on a 2x host: got %v, want 2 (raw x R_run/R0)", fast.time(1.0))
	}
	if !near(fast.rate(300), 150) {
		t.Errorf("rate on a 2x host: got %v, want 150 (raw x R0/R_run)", fast.rate(300))
	}
	// Normalised work per normalised time is unchanged: rate x time = ops.
	if !near(fast.rate(300)*fast.time(10), 300*10) {
		t.Error("normalisation changes the op count")
	}
}

func TestHostRefRateIsMedianSlice(t *testing.T) {
	h := newHostRef(5, 2)
	for i := 0; i < 3; i++ {
		h.slice()
	}
	if len(h.rates) != 3 {
		t.Fatalf("3 slices: rates %v", h.rates)
	}
	if h.rate() != median(h.rates) || h.rate() <= 0 {
		t.Fatalf("rate %v is not the median of %v", h.rate(), h.rates)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tkbench\nVmPeak:\t  812340 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseVmHWM(strings.NewReader(status))
	if err != nil || kb != 51234 {
		t.Fatalf("parseVmHWM = %d, %v; want 51234", kb, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
	if mib, err := peakRSSMiB(); err != nil || mib <= 0 {
		t.Fatalf("peakRSSMiB = %v, %v", mib, err)
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  2534935 0 234115 1954400 3546 0 77667 58852 0 0\ncpu0 1 0 1 1 1 0 1 7 0 0\n"
	n, err := parseSteal(strings.NewReader(stat))
	if err != nil || n != 58852 {
		t.Fatalf("parseSteal = %d, %v; want 58852", n, err)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3\n", "cpu  1 2 3 4 5 6 7 x\n"} {
		if _, err := parseSteal(strings.NewReader(bad)); err == nil {
			t.Errorf("parseSteal(%q) accepted", bad)
		}
	}
}

func TestLeastStolenHalf(t *testing.T) {
	for _, c := range []struct {
		steal []uint64
		want  []int
	}{
		{[]uint64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{[]uint64{5, 0, 9, 1}, []int{1, 3}},
		{[]uint64{5, 0, 9, 1, 2}, []int{1, 3, 4}},
		{[]uint64{3, 1, 1, 7}, []int{1, 2}},
		{[]uint64{4}, []int{0}},
		{nil, nil},
	} {
		if got := leastStolen(c.steal); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("leastStolen(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
	var r recorder
	for i, steal := range []uint64{0, 8, 1} {
		r.op(time.Duration(i+1)*time.Millisecond, true)
		r.op(0, false)
		r.window(1, time.Second>>i)
		r.stolen(steal)
	}
	rates, lat := r.quiet()
	if fmt.Sprint(rates) != "[1 4]" || fmt.Sprint(lat) != "[0.001 0.003]" || r.ops() != 3 || r.attempted != 6 {
		t.Fatalf("quiet = %v, %v; ops %d of %d", rates, lat, r.ops(), r.attempted)
	}
}

var sink []byte

func TestAllocationDelta(t *testing.T) {
	a0 := heapAllocs()
	sink = make([]byte, 4<<20)
	if d := heapAllocs() - a0; d < 4<<20 {
		t.Fatalf("a 4 MiB allocation moved %s by %d bytes", allocsMetric, d)
	}
	kb, err := allocPerOp(1000, 1000+10*2048+512, 512, 10)
	if err != nil || kb != 2 {
		t.Fatalf("allocPerOp = %v, %v; want 2 KiB", kb, err)
	}
	if _, err := allocPerOp(1000, 900, 0, 10); err == nil {
		t.Error("a backwards counter was accepted")
	}
	if _, err := allocPerOp(1000, 2000, 1001, 10); err == nil {
		t.Error("background work larger than the delta was accepted")
	}
	if _, err := allocPerOp(0, 10, 0, 0); err == nil {
		t.Error("zero ops accepted")
	}
	// The interleaved reference slices must not move the counter, or
	// they would count as the workload's allocations.
	h := newHostRef(200, 2)
	h.slice()
	a1 := heapAllocs()
	h.slice()
	if d := heapAllocs() - a1; d > 4096 {
		t.Errorf("a reference slice allocated %d bytes", d)
	}
}

func TestPackageToLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"kshot/internal/mem.(*Physical).access", "kshot/internal/isa.(*Engine).Run"}, "mem"},
		{[]string{"kshot/internal/isa.(*Engine).runBlock"}, "isa"},
		{[]string{"kshot/internal/smmpatch.(*Handler).process.func1"}, "smmpatch"},
		{[]string{"kshot/internal/obs.(*Hooks).Span"}, "other"},
		{[]string{"internal/runtime/syscall.Syscall6", "net.(*conn).Read", "kshot/internal/patchserver.(*Client).FetchPatch"}, "patchserver"},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Decoder).decodeStruct", "kshot/internal/sgxprep.gobDecode"}, "encoding_gob"},
		{[]string{"math/big.nat.expNN"}, "math_big"},
		{[]string{"encoding/gob.(*Decoder).decodeStruct"}, "encoding_gob"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "kshot/internal/core.(*System).Apply"}, "core"},
		{[]string{"runtime.mallocgc", "main.(*guestWorkload).batch"}, "other"},
		{nil, "other"},
	} {
		if got, ok := bucketOf(c.stack); got != c.want || !ok {
			t.Errorf("bucketOf(%v) = %q, %v; want %q", c.stack, got, ok, c.want)
		}
	}
	if _, ok := bucketOf([]string{"crypto/sha256.Sum256", "main.(*refWorker).unit", "main.(*hostRef).slice.func1"}); ok {
		t.Error("a reference-slice sample was attributed")
	}
}

// TestCPUSharesFromProfile profiles math/big work and checks that the
// proto reader finds it and that the shares add up.
func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	var x, e, m big.Int
	x.SetUint64(3)
	e.Lsh(big.NewInt(1), 1000)
	m.Lsh(big.NewInt(1), 2048)
	m.Sub(&m, big.NewInt(159))
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		x.Exp(&x, &e, &m)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range cpuLayers {
		v, ok := shares["cpu."+l]
		if !ok {
			t.Fatalf("no cpu.%s share", l)
		}
		total += v
	}
	if !near(total, 1) {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if shares["cpu.math_big"] < 0.5 {
		t.Errorf("cpu.math_big = %v for a math/big loop", shares["cpu.math_big"])
	}
}

func TestSpanSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{name: spRun, parent: -1, start: 0, end: 100},
		{name: spOp, parent: 0, start: 10, end: 40},
		{name: spOp, parent: 0, start: 30, end: 60}, // overlaps the first slot
		{name: spOp, parent: 0, start: 70, end: 80},
		{name: spApplyAll, parent: 3, start: 72, end: 90}, // grandchild running past its parent
		{name: spOp, parent: -1, start: 0, end: 100},      // not under the run
	}
	// Covered: [10,60) + [70,90) = 70 of 100.
	if got := selfFrac(spans, spRun); !near(got, 0.3) {
		t.Fatalf("selfFrac = %v, want 0.3", got)
	}
	if got := covered(interval{0, 10}, []interval{{-5, 3}, {2, 4}, {8, 20}}); got != 6 {
		t.Fatalf("covered = %d, want 6", got)
	}
}

func TestLeafCoverage(t *testing.T) {
	spans := []span{
		{name: spWindow, parent: -1, start: 0, end: 100},
		{name: spWindow, parent: -1, start: 200, end: 300},
		{name: spCall, parent: -1, start: -10, end: 20},
		{name: spCall, parent: -1, start: 10, end: 30},
		{name: spApply, parent: -1, start: 90, end: 210}, // spans both windows
		{name: spOp, parent: -1, start: 0, end: 300},     // not a leaf
	}
	// Window 1: [0,30) + [90,100) = 40; window 2: [200,210) = 10.
	if got := leafCoverage(spans); !near(got, 50.0/200) {
		t.Fatalf("leafCoverage = %v, want 0.25", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	if id := tr.open(spOp, -1, -1); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.close(3)
	live := newTracer()
	p := live.open(spOp, -1, 7)
	c := live.open(spCall, p, 7)
	live.close(c)
	live.close(p)
	got := live.snapshot()
	if len(got) != 2 || got[1].parent != p || got[1].op != 7 || got[0].end < got[1].end {
		t.Fatalf("spans %+v", got)
	}
	path := t.TempDir() + "/spans.csv.gz"
	if err := live.write(path); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	const period = 20 * time.Millisecond
	stop := make(chan struct{})
	var starts []time.Time
	t0 := time.Now()
	lags := openLoop(stop, t0, period, func(k int) bool {
		starts = append(starts, time.Now())
		if k == 0 {
			time.Sleep(2*period + period/2) // a stall: cycles 1 and 2 come due meanwhile
		}
		return k < 4
	})
	if len(lags) != 5 {
		t.Fatalf("%d cycles, want 5", len(lags))
	}
	// Lateness is measured from the due time, not from the previous cycle.
	for k, lag := range lags {
		due := t0.Add(time.Duration(k) * period)
		if want := starts[k].Sub(due).Seconds(); math.Abs(lag-want) > 0.002 {
			t.Errorf("cycle %d: lag %v, start-due %v", k, lag, want)
		}
	}
	if lags[1] < (period + period/2).Seconds() {
		t.Errorf("cycle 1 ran %.1fms late; the stall should make it >= 30ms", lags[1]*1e3)
	}
	if lags[1] <= lags[3] {
		t.Errorf("lateness did not recover after the stall: %v", lags)
	}
	close(stop)
	if got := openLoop(stop, time.Now().Add(time.Hour), period, func(int) bool { return true }); len(got) != 0 {
		t.Error("a stopped loop ran a cycle")
	}
}

func TestVirtBookGate(t *testing.T) {
	var a, b virtBook
	a.smi("apply X", 40*time.Microsecond)
	a.smi("apply Y", 45*time.Microsecond)
	a.patched("X", time.Millisecond)
	a.patched("Y", 2*time.Millisecond)
	a.count("smis/apply X", 1)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	if a.pauseMaxUS() != 45 || a.patchMeanUS() != 1500 {
		t.Fatalf("pause max %v, patch mean %v", a.pauseMaxUS(), a.patchMeanUS())
	}
	b.smi("apply X", 40*time.Microsecond)
	if err := a.same(&b); err == nil {
		t.Error("ledgers with different keys compared equal")
	}
	a.smi("apply X", 41*time.Microsecond)
	if a.check() == nil {
		t.Error("a repeated SMI with a different pause passed the gate")
	}
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated machines")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: heldOutSeed, seconds: 0.2, sc: tinyScale}
			res, err := untraced(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < p90MinOps {
				t.Fatalf("result %+v", res)
			}
			for _, m := range endToEndNames(t) {
				if v := res.Metrics[m]; !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", m, v.Value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated machines")
	}
	cfg := runConfig{workload: "fleet_rollout", seed: defaultSeed, seconds: 0.2, sc: tinyScale}
	res, err := traced(context.Background(), cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range perLayerMetrics() {
		if _, ok := res.Metrics[lm.name]; !ok {
			t.Errorf("traced run did not print %s", lm.name)
		}
	}
	for _, name := range []string{"orchestrator.run_ms", "core.fork_us_p50", "core.applyall_ms_p50",
		"patchserver.fetch_us", "sgxprep.prepare_us", "kcrypto.dh_us", "mem.fork_us", "patch.build_ms", "bench.span_coverage"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on fleet_rollout, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}

type benchJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func endToEndNames(t *testing.T) []string {
	var names []string
	for _, m := range readBenchJSON(t).EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

// TestInteractionMapMatchesBenchmarkJSON holds the per-layer table in
// interaction.go equal to BENCHMARK.json.
func TestInteractionMapMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchJSON(t)
	want := perLayerMetrics()
	if len(bj.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the interaction map %d", len(bj.PerLayer), len(want))
	}
	for i, m := range bj.PerLayer {
		if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, interaction map %s/%s/%s", i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	// Every end-to-end metric is one endToEnd prints, with its unit.
	o := &runOut{refRate: refRate0, rec: &recorder{wins: []window{{rate: 1, lat: seq(200)}}}, setupRaw: []float64{1}, setupStl: []uint64{0}}
	e2e, err := endToEnd(o)
	if err != nil {
		t.Fatal(err)
	}
	var printed []string
	for k := range e2e {
		printed = append(printed, k)
	}
	sort.Strings(printed)
	var listed []string
	for _, m := range bj.EndToEnd {
		listed = append(listed, m.Name)
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q printed, %q in BENCHMARK.json", m.Name, e2e[m.Name].Unit, m.Unit)
		}
	}
	sort.Strings(listed)
	if strings.Join(printed, ",") != strings.Join(listed, ",") {
		t.Errorf("printed %v, BENCHMARK.json %v", printed, listed)
	}
}
