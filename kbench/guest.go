package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kernel"
	"kshot/internal/mem"
)

// guest_under_patch: the guest's view of a live patch (§VI-C3). The
// benchmark's own loop drives a syscall mix through Kernel.Call on the
// only vCPU while an open-loop patcher applies and rolls back one
// Figure-6 CVE every patch period, rotating through the six in seeded
// order. Op = one fixed batch of guest calls.

// guestBufOff places the guest's buffers in the kernel heap, clear of
// anything the kernel itself uses.
const guestBufOff = 0x10000

type guestCall struct {
	fn   string
	args []uint64
}

type guestWorkload struct {
	env
	order []*cvebench.Entry
	s     *single
	calls []guestCall
	want  []uint64
	src   uint64 // guest buffer addresses
	words uint64

	stop    chan struct{}
	wg      sync.WaitGroup
	cycles  atomic.Int64
	lags    []float64 // patcher lateness, s; set by the patcher, read after wg.Wait
	epochs  []float64 // code epoch moves per Apply
	applyN  []float64 // SMIs per Apply
	smis    uint64    // SMM entries in the timed phase
	batches int
	engine0 isa.EngineStats
	engine  isa.EngineStats // timed-phase delta
	probe   []isa.EngineStats

	cycleAllocs uint64 // heap bytes one patch cycle allocates
}

func newGuest(e env) *guestWorkload {
	f6 := cvebench.FigureSix()
	rng := rand.New(rand.NewSource(e.seed))
	order := make([]*cvebench.Entry, len(f6))
	for i, p := range rng.Perm(len(f6)) {
		order[i] = f6[p]
	}
	w := &guestWorkload{env: e, order: order, words: uint64(e.sc.guestWords)}
	w.src = kernel.HeapBase + guestBufOff
	dst := w.src + 8*w.words
	for i := 0; i < e.sc.guestCalls; i++ {
		var c guestCall
		switch i % 3 {
		case 0:
			c = guestCall{"sys_compute", []uint64{uint64(rng.Intn(1 << 20)), uint64(rng.Intn(1 << 10))}}
		case 1:
			c = guestCall{"sys_memmove", []uint64{dst, w.src, w.words}}
		default:
			c = guestCall{"sys_checksum", []uint64{w.src, w.words}}
		}
		w.calls = append(w.calls, c)
	}
	return w
}

func (w *guestWorkload) setup(ctx context.Context) error {
	s, err := bootSingle(ctx, w.order)
	if err != nil {
		return err
	}
	w.s = s
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	for i := uint64(0); i < w.words; i++ {
		if err := s.sys.Machine.Mem.WriteU64(mem.PrivKernel, w.src+8*i, rng.Uint64()); err != nil {
			return fmt.Errorf("seed guest buffer: %w", err)
		}
	}
	// The pre-patch results every later call must reproduce.
	w.want = make([]uint64, len(w.calls))
	for i, c := range w.calls {
		if w.want[i], err = s.sys.Kernel.Call(0, c.fn, c.args...); err != nil {
			return fmt.Errorf("pre-patch %s: %w", c.fn, err)
		}
	}
	// Warm-up: one patch cycle per CVE, so the server builds them all.
	for _, e := range w.order {
		if _, err := s.sys.Apply(ctx, e.CVE); err != nil {
			return err
		}
		if _, err := s.sys.Rollback(ctx, e.CVE); err != nil {
			return err
		}
	}
	if _, err := w.batch(-1); err != nil {
		return err
	}
	return s.clean()
}

// batch runs one op: every guest call once, checking each result.
func (w *guestWorkload) batch(parent int32) (time.Duration, error) {
	k := w.s.sys.Kernel
	start := time.Now()
	op := w.tr.open(spOp, parent, -1)
	defer w.tr.close(op)
	for i, c := range w.calls {
		sp := w.tr.open(spCall, op, -1)
		got, err := k.Call(0, c.fn, c.args...)
		w.tr.close(sp)
		if err != nil {
			return 0, fmt.Errorf("guest %s: %w", c.fn, err)
		}
		if got != w.want[i] {
			return 0, fmt.Errorf("guest %s%v = %#x, pre-patch %#x", c.fn, c.args, got, w.want[i])
		}
	}
	return time.Since(start), nil
}

func (w *guestWorkload) begin(ctx context.Context) error {
	w.engine0 = w.engineStats()
	w.smis = w.s.sys.SMM.Entries()
	w.stop = make(chan struct{})
	w.wg.Add(1)
	go w.patcher(ctx, time.Now())
	return nil
}

// patcher is the open-loop patch source: one Apply+Rollback cycle
// per period, rotating through the CVEs.
func (w *guestWorkload) patcher(ctx context.Context, t0 time.Time) {
	defer w.wg.Done()
	w.lags = openLoop(w.stop, t0, w.sc.patchPeriod, func(k int) bool {
		cve := w.order[k%len(w.order)].CVE
		_, n, err := w.s.patchOp(ctx, w.env, true, cve, -1)
		if err == nil {
			w.epochs = append(w.epochs, float64(n.epochs))
			w.applyN = append(w.applyN, float64(n.smis))
			_, _, err = w.s.patchOp(ctx, w.env, false, cve, -1)
		}
		if err == nil {
			err = w.s.clean()
		}
		if err != nil {
			w.rec.virt.fail(fmt.Errorf("patch cycle %d: %w", k, err))
			return false
		}
		w.cycles.Add(1)
		return true
	})
}

// openLoop calls cycle(k) at t0 + k*period until stop closes or cycle
// returns false. Cycle k is due at its time whether or not cycle k-1
// finished on time; openLoop returns each cycle's lateness, the time
// from its due time to its start.
func openLoop(stop <-chan struct{}, t0 time.Time, period time.Duration, cycle func(k int) bool) []float64 {
	var lags []float64
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return lags
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return lags
			default:
			}
		}
		lags = append(lags, time.Since(due).Seconds())
		if !cycle(k) {
			return lags
		}
	}
}

// window runs a fixed number of guest batches.
func (w *guestWorkload) window(context.Context) error {
	win := w.tr.open(spWindow, -1, -1)
	start := time.Now()
	for i := 0; i < w.sc.guestWindow; i++ {
		d, err := w.batch(win)
		w.rec.op(d, err == nil)
		if err != nil {
			w.tr.close(win)
			return err
		}
	}
	w.rec.window(w.sc.guestWindow, time.Since(start))
	w.tr.close(win)
	w.batches += w.sc.guestWindow
	return nil
}

// enough holds the run open until every CVE has been patched once.
func (w *guestWorkload) enough() bool { return w.cycles.Load() >= int64(len(w.order)) }

// end stops the patcher, then replays each CVE's patch cycle between
// guest batches on a quiescent vCPU: the block-cache counts of that
// probe are exact and enter the determinism gate.
func (w *guestWorkload) end(ctx context.Context) error {
	close(w.stop)
	w.wg.Wait()
	w.smis = w.s.sys.SMM.Entries() - w.smis
	w.engine = engineDelta(w.engineStats(), w.engine0)
	for round := 0; round < 2; round++ {
		for _, e := range w.order {
			if _, err := w.batch(-1); err != nil {
				return err
			}
			s0 := w.engineStats()
			if _, _, err := w.s.patchOp(ctx, w.env, true, e.CVE, -1); err != nil {
				return err
			}
			if _, err := w.batch(-1); err != nil {
				return err
			}
			if _, _, err := w.s.patchOp(ctx, w.env, false, e.CVE, -1); err != nil {
				return err
			}
			if _, err := w.batch(-1); err != nil {
				return err
			}
			d := engineDelta(w.engineStats(), s0)
			w.rec.virt.count("isa decodes/probe "+e.CVE, d.Decodes)
			w.rec.virt.count("isa flushes/probe "+e.CVE, d.Flushes)
			w.probe = append(w.probe, d)
		}
	}
	// What one patch cycle allocates. The collector runs on both
	// sides so the per-P allocation caches are flushed into the count.
	runtime.GC()
	a0 := heapAllocs()
	for _, e := range w.order {
		if _, _, err := w.s.patchOp(ctx, w.env, true, e.CVE, -1); err != nil {
			return err
		}
		if _, _, err := w.s.patchOp(ctx, w.env, false, e.CVE, -1); err != nil {
			return err
		}
	}
	runtime.GC()
	w.cycleAllocs = (heapAllocs() - a0) / uint64(len(w.order))
	return w.s.clean()
}

// background is what the patcher allocated in the timed phase: it
// runs on a clock, not per op, so on a slower host it would otherwise
// read as more allocation per guest op.
func (w *guestWorkload) background() uint64 { return uint64(w.cycles.Load()) * w.cycleAllocs }

func (w *guestWorkload) engineStats() isa.EngineStats {
	st, _ := w.s.sys.Machine.VCPU(0).EngineStats()
	return st
}

func engineDelta(a, b isa.EngineStats) isa.EngineStats {
	return isa.EngineStats{
		Decodes:   a.Decodes - b.Decodes,
		Hits:      a.Hits - b.Hits,
		Flushes:   a.Flushes - b.Flushes,
		Fallbacks: a.Fallbacks - b.Fallbacks,
	}
}

func (w *guestWorkload) layers(l map[string]float64) {
	if n := w.engine.Hits + w.engine.Decodes; n > 0 {
		l["isa.block_hit_ratio"] = float64(w.engine.Hits) / float64(n)
	}
	var dec, fl float64
	for _, d := range w.probe {
		dec += float64(d.Decodes)
		fl += float64(d.Flushes)
	}
	// Each probe cycle changes the text twice: the patch and its rollback.
	if n := float64(2 * len(w.probe)); n > 0 {
		l["isa.decodes_per_patch"] = dec / n
		l["isa.flushes_per_patch"] = fl / n
	}
	l["mem.code_epochs_per_patch"] = mean(w.epochs)
	l["mem.private_kb_per_target"] = float64(w.s.sys.Machine.Mem.ResidentStats().PrivateBytes) / 1024
	l["pipeline.smis_per_cve"] = mean(w.applyN)
	if w.batches > 0 {
		l["smm.entries_per_op"] = float64(w.smis) / float64(w.batches)
	}
	l["patchserver.builds"] = float64(w.s.srv.Builds())
	// p90 needs 100 cycles; a shorter run reports its worst lateness.
	if p, err := percentile(w.lags, 0.9); err == nil {
		l["bench.lag_ms_p90"] = p * 1e3
	} else if len(w.lags) > 0 {
		l["bench.lag_ms_p90"] = sorted(w.lags)[len(w.lags)-1] * 1e3
	}
}

func (w *guestWorkload) close() {
	if w.stop != nil {
		select {
		case <-w.stop:
		default:
			close(w.stop)
		}
		w.wg.Wait()
	}
	if w.s != nil {
		w.s.close()
	}
}
