package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patchserver"
)

// patch_churn: closed loop on one cold-booted 1-vCPU System. One cycle
// applies a conflict-free set of Table-I CVEs one at a time in seeded
// order, then rolls them back in reverse. Op = one single-CVE Apply or
// Rollback.

// single is a cold-booted System on its own patch server, with the
// post-boot kernel.text snapshot the correctness gate diffs against.
type single struct {
	srv  *patchserver.Server
	sys  *core.System
	boot *mem.Snapshot
}

func bootSingle(ctx context.Context, entries []*cvebench.Entry) (*single, error) {
	srv, err := newServer(entries)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystemCtx(ctx, core.Options{
		Version:    "4.4",
		NumVCPUs:   1,
		ExtraFiles: extraFiles(entries),
		ServerAddr: srv.Addr(),
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &single{srv: srv, sys: sys, boot: sys.Machine.Mem.Snapshot()}, nil
}

// clean checks that nothing is applied and kernel.text matches boot.
func (s *single) clean() error {
	if a := s.sys.Applied(); len(a) != 0 {
		return fmt.Errorf("still applied after rollback: %v", a)
	}
	diff, err := s.sys.Machine.Mem.DiffFramesIn(s.boot, kernel.TextBase, kernel.TextRegionSize)
	if err != nil {
		return err
	}
	if len(diff) != 0 {
		return fmt.Errorf("kernel.text differs from boot in %d frames", len(diff))
	}
	return nil
}

// opCounts are what one patch op moved.
type opCounts struct{ smis, epochs uint64 }

// patchOp runs one Apply or Rollback, filing its virtual figures and
// counts under the op's name. It returns the op's wall time and counts.
func (s *single) patchOp(ctx context.Context, e env, apply bool, cve string, parent int32) (time.Duration, opCounts, error) {
	sys := s.sys
	kind, name := "rollback", spRollback
	if apply {
		kind, name = "apply", spApply
	}
	p0, n0, e0 := sys.SMM.TotalPause(), sys.SMM.Entries(), sys.Machine.Mem.CodeEpoch()
	start := time.Now()
	sp := e.tr.open(name, parent, -1)
	var rep *core.Report
	var err error
	if apply {
		rep, err = sys.Apply(ctx, cve)
	} else {
		rep, err = sys.Rollback(ctx, cve)
	}
	e.tr.close(sp)
	d := time.Since(start)
	if err != nil {
		return d, opCounts{}, fmt.Errorf("%s %s: %w", kind, cve, err)
	}
	key := kind + " " + cve
	smis := sys.SMM.Entries() - n0
	epochs := sys.Machine.Mem.CodeEpoch() - e0
	v := &e.rec.virt
	v.count("smis/"+key, smis)
	v.count("code epochs/"+key, epochs)
	if smis == 1 {
		v.smi(key, sys.SMM.TotalPause()-p0)
	}
	if apply {
		v.patched(cve, rep.Stages.SGXTotal()+rep.Stages.SMMTotal())
	}
	return d, opCounts{smis: smis, epochs: epochs}, nil
}

func (s *single) close() {
	if s.sys != nil {
		s.sys.Close()
	}
	s.srv.Close()
}

type churnWorkload struct {
	env
	order  []*cvebench.Entry
	s      *single
	cycles int
	epochs []float64 // code epoch moves per Apply
	smis   []float64 // SMM entries per op
}

func newChurn(e env) *churnWorkload {
	entries := cvebench.ConflictFreeWaves(cvebench.All())[0]
	rng := rand.New(rand.NewSource(e.seed))
	order := make([]*cvebench.Entry, len(entries))
	for i, p := range rng.Perm(len(entries)) {
		order[i] = entries[p]
	}
	return &churnWorkload{env: e, order: order}
}

func (w *churnWorkload) setup(ctx context.Context) error {
	s, err := bootSingle(ctx, w.order)
	if err != nil {
		return err
	}
	w.s = s
	// Warm-up: one cycle, so the server builds every patch.
	for _, e := range w.order {
		if _, err := s.sys.Apply(ctx, e.CVE); err != nil {
			return err
		}
	}
	for i := len(w.order) - 1; i >= 0; i-- {
		if _, err := s.sys.Rollback(ctx, w.order[i].CVE); err != nil {
			return err
		}
	}
	return s.clean()
}

func (w *churnWorkload) begin(context.Context) error { return nil }

// window runs one cycle: apply every CVE, then roll all back.
func (w *churnWorkload) window(ctx context.Context) error {
	win := w.tr.open(spWindow, -1, -1)
	start := time.Now()
	op := func(apply bool, cve string) error {
		d, n, err := w.s.patchOp(ctx, w.env, apply, cve, win)
		w.rec.op(d, err == nil)
		if err == nil {
			w.smis = append(w.smis, float64(n.smis))
			if apply {
				w.epochs = append(w.epochs, float64(n.epochs))
			}
		}
		return err
	}
	for _, e := range w.order {
		if err := op(true, e.CVE); err != nil {
			return err
		}
	}
	for i := len(w.order) - 1; i >= 0; i-- {
		if err := op(false, w.order[i].CVE); err != nil {
			return err
		}
	}
	w.rec.window(2*len(w.order), time.Since(start))
	w.tr.close(win)
	w.cycles++
	if err := w.s.clean(); err != nil {
		w.rec.virt.fail(fmt.Errorf("cycle %d: %w", w.cycles, err))
	}
	return nil
}

func (w *churnWorkload) enough() bool { return w.cycles >= 1 }

func (w *churnWorkload) end(context.Context) error { return nil }

func (w *churnWorkload) background() uint64 { return 0 }

func (w *churnWorkload) layers(l map[string]float64) {
	l["pipeline.smis_per_cve"] = mean(w.smis)
	l["mem.code_epochs_per_patch"] = mean(w.epochs)
	l["mem.private_kb_per_target"] = float64(w.s.sys.Machine.Mem.ResidentStats().PrivateBytes) / 1024
	l["smm.entries_per_op"] = mean(w.smis)
	l["patchserver.builds"] = float64(w.s.srv.Builds())
}

func (w *churnWorkload) close() {
	if w.s != nil {
		w.s.close()
	}
}
