package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// recorder collects one run's untraced measurements: per-op latency,
// attempted and failed ops, and per-window throughput and hypervisor
// steal. Two targets of a rollout report concurrently, so it is
// locked.
type recorder struct {
	mu        sync.Mutex
	cur       []float64 // latencies of the open window's ops, s
	wins      []window
	attempted int
	failed    int
	done      int
	virt      virtBook
}

// window is one closed measurement window.
type window struct {
	rate  float64 // raw ops/s
	dur   time.Duration
	lat   []float64 // its ops' latencies, s
	steal uint64    // hypervisor steal over it, in clock ticks
}

// op records one completed or failed op.
func (r *recorder) op(d time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	r.done++
	r.cur = append(r.cur, d.Seconds())
}

// window closes the open window after ops ops in d.
func (r *recorder) window(ops int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wins = append(r.wins, window{rate: float64(ops) / d.Seconds(), dur: d, lat: r.cur})
	r.cur = nil
}

// stolen files the steal measured over the last closed window.
func (r *recorder) stolen(ticks uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.wins); n > 0 {
		r.wins[n-1].steal = ticks
	}
}

func (r *recorder) ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// quiet returns the window rates and op latencies the metrics read:
// those of the windows the hypervisor stole least from (see
// leastStolen).
func (r *recorder) quiet() (rates, lat []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	steal := make([]uint64, len(r.wins))
	for i, w := range r.wins {
		steal[i] = w.steal
	}
	for _, i := range leastStolen(steal) {
		rates = append(rates, r.wins[i].rate)
		lat = append(lat, r.wins[i].lat...)
	}
	return rates, lat
}

// stealFrac is the share of the windows' CPU time, over all of the
// machine's CPUs, that the hypervisor stole.
func (r *recorder) stealFrac() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ticks uint64
	var d time.Duration
	for _, w := range r.wins {
		ticks += w.steal
		d += w.dur
	}
	if d <= 0 {
		return 0
	}
	return float64(ticks) / clockTicks / (d.Seconds() * float64(runtime.NumCPU()))
}

// leastStolen returns, in order, the indices whose steal is at most
// the lower median of steal: at least half of them, all when none was
// stolen from. On a shared 2-vCPU VM the hypervisor takes the vCPUs
// away in bursts of milliseconds, unseen by the reference loop's
// median: over a run with 17% steal, patch_churn's p90 read 7.0 ms
// against 5.3 ms with 2%. Reading the less-stolen half keeps the
// figures on the program.
func leastStolen(steal []uint64) []int {
	if len(steal) == 0 {
		return nil
	}
	s := append([]uint64(nil), steal...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	limit := s[(len(s)-1)/2]
	var keep []int
	for i, x := range steal {
		if x <= limit {
			keep = append(keep, i)
		}
	}
	return keep
}

// virtBook is the determinism gate's ledger. Every virtual-time
// figure and every count that must repeat exactly is filed under a
// key naming the op shape (say "apply CVE-2014-0196"); a later value
// under the same key that differs is a determinism failure.
type virtBook struct {
	mu     sync.Mutex
	pause  map[string]time.Duration // one SMI's OS pause
	total  map[string]time.Duration // one patched CVE's SGX+SMM total
	counts map[string]uint64
	err    error
}

func (v *virtBook) file(m *map[string]time.Duration, kind, key string, d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if *m == nil {
		*m = make(map[string]time.Duration)
	}
	if old, ok := (*m)[key]; ok && old != d && v.err == nil {
		v.err = fmt.Errorf("determinism: %s of %q was %v, now %v", kind, key, old, d)
	}
	(*m)[key] = d
}

// smi files the OS pause of one SMI.
func (v *virtBook) smi(key string, d time.Duration) { v.file(&v.pause, "SMI pause", key, d) }

// patched files the SGX+SMM total of one patched CVE.
func (v *virtBook) patched(cve string, d time.Duration) { v.file(&v.total, "patch total", cve, d) }

// count files a count that must repeat exactly.
func (v *virtBook) count(key string, n uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.counts == nil {
		v.counts = make(map[string]uint64)
	}
	if old, ok := v.counts[key]; ok && old != n && v.err == nil {
		v.err = fmt.Errorf("determinism: count %q was %d, now %d", key, old, n)
	}
	v.counts[key] = n
}

// fail records a failed invariant.
func (v *virtBook) fail(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.err == nil {
		v.err = err
	}
}

func (v *virtBook) check() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// pauseMaxUS is the worst single-SMI pause, in virtual µs.
func (v *virtBook) pauseMaxUS() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var m time.Duration
	for _, d := range v.pause {
		if d > m {
			m = d
		}
	}
	return float64(m) / float64(time.Microsecond)
}

// patchMeanUS is the mean SGX+SMM total over the distinct patched
// CVEs, in virtual µs.
func (v *virtBook) patchMeanUS() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.total) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range v.total {
		s += d
	}
	return float64(s) / float64(len(v.total)) / float64(time.Microsecond)
}

// same reports the first difference between two ledgers: the traced
// run must reproduce the untraced run's virtual figures exactly.
func (v *virtBook) same(o *virtBook) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := sameDurations("SMI pause", v.pause, o.pause); err != nil {
		return err
	}
	if err := sameDurations("patch total", v.total, o.total); err != nil {
		return err
	}
	for _, k := range sortedKeys(v.counts, o.counts) {
		if v.counts[k] != o.counts[k] {
			return fmt.Errorf("count %q: %d vs %d", k, v.counts[k], o.counts[k])
		}
	}
	return nil
}

func sameDurations(kind string, a, b map[string]time.Duration) error {
	for _, k := range sortedKeys(a, b) {
		x, okx := a[k]
		y, oky := b[k]
		if !okx || !oky || x != y {
			return fmt.Errorf("%s of %q: %v vs %v", kind, k, x, y)
		}
	}
	return nil
}

func sortedKeys[V any](ms ...map[string]V) []string {
	seen := map[string]bool{}
	var ks []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
	}
	sort.Strings(ks)
	return ks
}
