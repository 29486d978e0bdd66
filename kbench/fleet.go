package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/orchestrator"
	"kshot/internal/patchserver"
)

// fleet_rollout: closed-loop staged rollouts. Each rollout provisions
// every target by COW-forking a warm template and patches it with
// ApplyAll over TCP from one in-process patch server; the orchestrator
// closes every System when its wave ends. Op = one target (provision +
// ApplyAll).

const (
	fleetDomains     = 4
	fleetConcurrency = 2 // targets in flight: one core left for GC and the server
	fleetFetchers    = 1
	fleetCVEs        = 2 // the first Figure-6 CVEs
)

type fleetWorkload struct {
	env
	entries []*cvebench.Entry
	ids     []string
	srv     *patchserver.Server
	cache   *core.TemplateCache
	opts    core.Options
	fleet   []orchestrator.Target

	// per-layer observations of the timed phase
	smis, cves, batches, privateKB, epochs []float64
	entriesPerOp                           []float64
	rollouts                               int
}

func newFleet(e env) *fleetWorkload {
	w := &fleetWorkload{env: e, entries: cvebench.FigureSix()[:fleetCVEs]}
	for _, en := range w.entries {
		w.ids = append(w.ids, en.CVE)
	}
	return w
}

func (w *fleetWorkload) setup(ctx context.Context) error {
	srv, err := newServer(w.entries)
	if err != nil {
		return err
	}
	w.srv = srv
	w.cache = core.NewTemplateCache()
	w.opts = core.Options{
		Version:       "4.4",
		ExtraFiles:    extraFiles(w.entries),
		ServerAddr:    srv.Addr(),
		TemplateCache: w.cache,
	}
	// Warm-up: boot the template and have the server build both patches.
	sys, err := w.cache.System(ctx, w.opts)
	if err != nil {
		return err
	}
	defer sys.Close()
	rep, err := sys.ApplyAll(ctx, w.ids, core.WithFetchWorkers(fleetFetchers))
	if err != nil {
		return err
	}
	if len(rep.Failed) > 0 {
		return fmt.Errorf("warm-up ApplyAll: %d failed", len(rep.Failed))
	}

	// Seeded domain tags: an equal share per domain, in seeded order.
	rng := rand.New(rand.NewSource(w.seed))
	w.fleet = make([]orchestrator.Target, w.sc.fleetTargets)
	for i, p := range rng.Perm(len(w.fleet)) {
		w.fleet[i] = orchestrator.Target{
			ID:     fmt.Sprintf("t%04d", i),
			Domain: fmt.Sprintf("dom-%d", p%fleetDomains),
		}
	}
	// And one untimed rollout, so the heap has grown to its steady size
	// before the first window.
	timed := w.rec
	w.rec = &recorder{}
	err = w.rollout(ctx, -1)
	if err == nil {
		err = w.rec.virt.check()
	}
	w.rec = timed
	w.smis, w.cves, w.batches, w.privateKB, w.epochs, w.entriesPerOp = nil, nil, nil, nil, nil, nil
	w.rollouts = 0
	return err
}

func (w *fleetWorkload) begin(context.Context) error { return nil }

// window runs one timed rollout.
func (w *fleetWorkload) window(ctx context.Context) error {
	win := w.tr.open(spWindow, -1, -1)
	defer w.tr.close(win)
	return w.rollout(ctx, win)
}

// rollout runs the fleet once.
func (w *fleetWorkload) rollout(ctx context.Context, win int32) error {
	run := w.tr.open(spRun, win, -1)
	roll, err := orchestrator.New(
		orchestrator.WithTargets(w.fleet),
		orchestrator.WithCVEs(w.ids...),
		orchestrator.WithProvisioner(func(ctx context.Context, t orchestrator.Target) (orchestrator.Patcher, error) {
			return w.provision(ctx, run)
		}),
		orchestrator.WithSeed(w.seed),
		orchestrator.WithWaveConcurrency(fleetConcurrency),
		orchestrator.WithTargetFetchWorkers(fleetFetchers),
	)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := roll.Run(ctx)
	d := time.Since(start)
	w.tr.close(run)
	if err != nil {
		return fmt.Errorf("rollout %d: %w", w.rollouts, err)
	}
	w.rollouts++
	w.rec.window(len(w.fleet), d)
	if res.Patched != len(w.fleet) || res.Failed != 0 || res.RolledBack != 0 || res.Halted {
		w.rec.virt.fail(fmt.Errorf("rollout %d: %d/%d patched, %d failed, %d rolled back, halted=%v",
			w.rollouts, res.Patched, len(w.fleet), res.Failed, res.RolledBack, res.Halted))
	}
	w.rec.virt.count("waves/rollout", uint64(len(res.Waves)))
	return nil
}

// provision forks one target and wraps it so the op is timed from the
// fork to the end of its ApplyAll.
func (w *fleetWorkload) provision(ctx context.Context, run int32) (orchestrator.Patcher, error) {
	start := time.Now()
	op := w.tr.open(spOp, run, -1)
	fork := w.tr.open(spFork, op, -1)
	sys, err := core.NewSystemCtx(ctx, w.opts)
	w.tr.close(fork)
	if err != nil {
		w.tr.close(op)
		w.rec.op(0, false)
		return nil, err
	}
	return &timedTarget{System: sys, w: w, start: start, op: op}, nil
}

// timedTarget is the Patcher the orchestrator drives: a forked System
// whose ApplyAll and Close the benchmark times.
type timedTarget struct {
	*core.System
	w     *fleetWorkload
	start time.Time
	op    int32
}

func (t *timedTarget) ApplyAll(ctx context.Context, cves []string, opts ...core.ApplyOption) (*core.BatchReport, error) {
	w := t.w
	e0, n0 := t.Machine.Mem.CodeEpoch(), t.SMM.Entries()
	sp := w.tr.open(spApplyAll, t.op, -1)
	rep, err := t.System.ApplyAll(ctx, cves, opts...)
	w.tr.close(sp)
	w.tr.close(t.op)
	ok := err == nil && len(rep.Failed) == 0 && len(rep.Reports) == len(cves)
	w.rec.op(time.Since(t.start), ok)
	if !ok {
		w.rec.virt.fail(fmt.Errorf("target ApplyAll: err=%v report=%+v", err, rep))
		return rep, err
	}
	v := &w.rec.virt
	v.count("smis/applyall", rep.SMIs)
	v.count("batches/applyall", uint64(rep.Batches))
	if rep.SMIs == 1 {
		v.smi("applyall batch SMI", rep.SMMPause)
	}
	for _, r := range rep.Reports {
		v.patched(r.ID, r.Stages.SGXTotal()+r.Stages.SMMTotal())
	}
	epochs := t.Machine.Mem.CodeEpoch() - e0
	v.count("code epochs/applyall", epochs)
	w.rec.mu.Lock()
	w.smis = append(w.smis, float64(rep.SMIs))
	w.cves = append(w.cves, float64(len(rep.Reports)))
	w.batches = append(w.batches, float64(rep.Batches))
	w.epochs = append(w.epochs, float64(epochs))
	w.entriesPerOp = append(w.entriesPerOp, float64(t.SMM.Entries()-n0))
	w.privateKB = append(w.privateKB, float64(t.Machine.Mem.ResidentStats().PrivateBytes)/1024)
	w.rec.mu.Unlock()
	return rep, nil
}

func (t *timedTarget) Close() {
	sp := t.w.tr.open(spClose, t.op, -1)
	t.System.Close()
	t.w.tr.close(sp)
}

func (w *fleetWorkload) enough() bool { return w.rollouts >= 1 }

func (w *fleetWorkload) end(context.Context) error { return nil }

func (w *fleetWorkload) background() uint64 { return 0 }

func (w *fleetWorkload) layers(l map[string]float64) {
	w.rec.mu.Lock()
	defer w.rec.mu.Unlock()
	l["pipeline.smis_per_cve"] = sum(w.smis) / sum(w.cves)
	l["pipeline.batches"] = mean(w.batches)
	l["mem.private_kb_per_target"] = mean(w.privateKB)
	l["mem.code_epochs_per_patch"] = sum(w.epochs) / sum(w.cves)
	l["smm.entries_per_op"] = mean(w.entriesPerOp)
	l["patchserver.builds"] = float64(w.srv.Builds())
}

func (w *fleetWorkload) close() {
	if w.cache != nil {
		w.cache.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

// newServer starts an in-process patch server for entries.
func newServer(entries []*cvebench.Entry) (*patchserver.Server, error) {
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	return srv, nil
}

func extraFiles(entries []*cvebench.Entry) map[string]string {
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		files[e.File] = e.Vuln
	}
	return files
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
