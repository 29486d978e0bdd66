package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names: one per call the benchmark makes into a layer, plus the
// op and window spans that parent them.
const (
	spWindow   = "bench.window"
	spOp       = "bench.op"
	spRun      = "orchestrator.run"
	spFork     = "core.fork"
	spApplyAll = "core.applyall"
	spApply    = "core.apply"
	spRollback = "core.rollback"
	spClose    = "core.close"
	spCall     = "kernel.call"
)

// leafSpans are the spans with no child span: the calls into the
// program. Their union over the windows is the span coverage.
var leafSpans = map[string]bool{
	spFork: true, spApplyAll: true, spApply: true, spRollback: true, spClose: true, spCall: true,
}

// maxSpans caps the in-memory trace; spans beyond it are counted, not
// kept.
const maxSpans = 2_000_000

type span struct {
	name       string
	parent, op int32
	start, end int64 // ns since the tracer's epoch; end 0 while open
}

// tracer keeps spans in memory. A nil *tracer is the untraced run:
// every method is a no-op returning -1.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id for close and as a parent.
func (t *tracer) open(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as gzipped CSV (name,parent,op,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,parent,op,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", s.name, s.parent, s.op, s.start, s.end)
	}
	err = bw.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// durations returns the durations, in seconds, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// interval is a half-open [lo, hi) stretch of time in ns.
type interval struct{ lo, hi int64 }

// covered returns how much of [win.lo, win.hi) the intervals cover,
// counting overlapping intervals once.
func covered(win interval, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		lo, hi := max(iv.lo, win.lo), min(iv.hi, win.hi)
		if lo < hi {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv.lo <= curHi {
			curHi = max(curHi, iv.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfFrac is the share of the parent spans' time not covered by any
// of the child spans, overlapping children counting once. Parents are
// the spans named parent; children are any span whose parent chain
// reaches one of them.
func selfFrac(spans []span, parent string) float64 {
	var total, self int64
	for id, p := range spans {
		if p.name != parent {
			continue
		}
		var kids []interval
		for _, s := range spans {
			if s.parent >= 0 && descends(spans, s, int32(id)) {
				kids = append(kids, interval{s.start, s.end})
			}
		}
		win := interval{p.start, p.end}
		total += p.end - p.start
		self += (p.end - p.start) - covered(win, kids)
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// descends reports whether s's parent chain reaches id.
func descends(spans []span, s span, id int32) bool {
	for p := s.parent; p >= 0; p = spans[p].parent {
		if p == id {
			return true
		}
		if int(p) >= len(spans) {
			return false
		}
	}
	return false
}

// leafCoverage is the share of the windows' time covered by leaf spans.
func leafCoverage(spans []span) float64 {
	var leaves []interval
	for _, s := range spans {
		if leafSpans[s.name] {
			leaves = append(leaves, interval{s.start, s.end})
		}
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].lo < leaves[j].lo })
	var longest int64
	for _, iv := range leaves {
		longest = max(longest, iv.hi-iv.lo)
	}
	var total, cov int64
	for _, w := range spans {
		if w.name != spWindow {
			continue
		}
		win := interval{w.start, w.end}
		total += w.end - w.start
		// Only leaves starting in [win.lo-longest, win.hi) can overlap it.
		from := sort.Search(len(leaves), func(i int) bool { return leaves[i].lo >= win.lo-longest })
		to := sort.Search(len(leaves), func(i int) bool { return leaves[i].lo >= win.hi })
		cov += covered(win, leaves[from:to])
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}
