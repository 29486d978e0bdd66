// Package machine glues physical memory and vCPUs into a runnable
// target machine with the pause/resume semantics KShot's SMM component
// relies on.
//
// Each vCPU executes call sessions on its own goroutine, checking a
// pause gate between instructions. Raising an SMI (from the smm
// package) pauses every vCPU at an instruction boundary — exactly the
// synchronous world-switch real SMM hardware performs — so the SMM
// handler observes a quiescent machine, and execution resumes where it
// stopped afterwards.
package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kshot/internal/isa"
	"kshot/internal/mem"
)

// Default layout constants for the simulated target machine.
const (
	// DefaultPhysSize is the machine's physical memory size. The
	// paper's testbed has 16 GB; 256 MB is ample for the simulated
	// kernel plus the 18 MB reservation and keeps tests fast.
	DefaultPhysSize = 256 << 20

	// StackRegionBase is where per-vCPU kernel stacks are mapped.
	StackRegionBase = 0xC00_0000
	// StackSize is the per-vCPU kernel stack size.
	StackSize = 256 << 10
)

// ErrStopped is returned for work submitted to a stopped machine.
var ErrStopped = errors.New("machine: stopped")

// Config configures a new Machine.
type Config struct {
	PhysSize uint64 // physical memory bytes (default DefaultPhysSize)
	NumVCPUs int    // number of vCPUs (default 4)

	// Dispatch selects the execution engine: predecoded basic blocks
	// (the zero value, isa.DispatchBlocks), the decode-switch oracle,
	// or differential lockstep verification of the two. Lockstep
	// requires a single vCPU: it rewinds and replays shared memory
	// every dispatch unit.
	Dispatch isa.Dispatch
}

// Machine is the simulated target host.
type Machine struct {
	Mem *mem.Physical

	vcpus    []*VCPU
	dispatch isa.Dispatch

	gate pauseGate

	mu      sync.Mutex
	stopped bool
}

// New builds a machine with mapped per-vCPU stacks and started vCPU
// runner goroutines. Call Stop when done.
func New(cfg Config) (*Machine, error) {
	if cfg.PhysSize == 0 {
		cfg.PhysSize = DefaultPhysSize
	}
	if cfg.NumVCPUs == 0 {
		cfg.NumVCPUs = 4
	}
	if cfg.Dispatch == isa.DispatchLockstep && cfg.NumVCPUs != 1 {
		return nil, fmt.Errorf("machine: lockstep dispatch requires exactly 1 vCPU, got %d", cfg.NumVCPUs)
	}
	m := &Machine{Mem: mem.New(cfg.PhysSize), dispatch: cfg.Dispatch}

	for i := 0; i < cfg.NumVCPUs; i++ {
		base := StackRegionBase + uint64(i)*StackSize
		name := fmt.Sprintf("stack.vcpu%d", i)
		// Stacks carry data, never code: no X at any privilege, so
		// pushes don't invalidate the block-dispatch code cache.
		if _, err := m.Mem.Map(name, base, StackSize, mem.Perms{
			Kernel: mem.PermRW,
			SMM:    mem.PermRW,
		}); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		cpu := isa.New(m.Mem, mem.PrivKernel)
		v := &VCPU{
			ID:       i,
			cpu:      cpu,
			runner:   isa.NewRunner(cpu, cfg.Dispatch),
			stackTop: base + StackSize,
			machine:  m,
			reqs:     make(chan *callReq),
		}
		m.vcpus = append(m.vcpus, v)
		go v.run()
	}
	return m, nil
}

// Fork clones the machine copy-on-write: the child gets a
// mem.Physical.Fork of physical memory (shared clean frames, private
// dirty frames, duplicated region table) and fresh vCPUs with fresh
// runner goroutines, stacks, and predecoded-block caches. Nothing is
// re-mapped — the per-vCPU stack regions are already present in the
// forked region table — so a fork costs O(frames) pointer work plus
// vCPU construction, independent of how much memory is resident.
//
// The parent must be quiescent (no call sessions in flight, no SMI
// pending); this is the template-fork provisioning contract — a
// template machine halts after kernel init and is only ever forked.
// Parent and child then run fully independently: separate pause
// gates, separate code epochs, separate block caches.
func (m *Machine) Fork() (*Machine, error) {
	m.mu.Lock()
	stopped := m.stopped
	m.mu.Unlock()
	if stopped {
		return nil, ErrStopped
	}
	child := &Machine{Mem: m.Mem.Fork(), dispatch: m.dispatch}
	for i := range m.vcpus {
		base := StackRegionBase + uint64(i)*StackSize
		cpu := isa.New(child.Mem, mem.PrivKernel)
		v := &VCPU{
			ID:       i,
			cpu:      cpu,
			runner:   isa.NewRunner(cpu, m.dispatch),
			stackTop: base + StackSize,
			machine:  child,
			reqs:     make(chan *callReq),
		}
		child.vcpus = append(child.vcpus, v)
		go v.run()
	}
	return child, nil
}

// NumVCPUs returns the vCPU count.
func (m *Machine) NumVCPUs() int { return len(m.vcpus) }

// Dispatch returns the machine's execution-engine mode.
func (m *Machine) Dispatch() isa.Dispatch { return m.dispatch }

// VCPU returns vCPU i.
func (m *Machine) VCPU(i int) *VCPU { return m.vcpus[i] }

// Stop shuts down all vCPU runner goroutines. In-flight sessions
// complete first. Stop is idempotent.
func (m *Machine) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	for _, v := range m.vcpus {
		close(v.reqs)
	}
}

// SetIntrospect installs (or, with nil, removes) the execution-layer
// introspection sink on every vCPU that runs through the block engine
// (blocks and lockstep dispatch; the pure oracle has no cache to
// observe and no unit-level hook). The machine is paused for the
// handoff so engines only ever see the sink change at a unit boundary.
func (m *Machine) SetIntrospect(sink isa.IntrospectSink) {
	m.gate.pause()
	defer m.gate.resume()
	for _, v := range m.vcpus {
		switch r := v.runner.(type) {
		case *isa.Engine:
			r.SetIntrospect(sink, v.ID)
		case *isa.Lockstep:
			r.Engine().SetIntrospect(sink, v.ID)
		}
	}
}

// Pause halts every vCPU at an instruction boundary and returns once
// all of them are quiescent. It is what an SMI does to the host.
func (m *Machine) Pause() { m.gate.pause() }

// Resume releases paused vCPUs (the RSM side of the world switch).
func (m *Machine) Resume() { m.gate.resume() }

// Paused reports whether the machine is currently paused.
func (m *Machine) Paused() bool { return m.gate.isPaused() }

// States captures the architectural state of every vCPU. Only
// meaningful while paused (the SMM save-state step).
func (m *Machine) States() []isa.State {
	out := make([]isa.State, len(m.vcpus))
	for i, v := range m.vcpus {
		out[i] = v.cpu.Save()
	}
	return out
}

// RestoreStates restores previously captured vCPU states. Only
// meaningful while paused (the RSM restore step).
func (m *Machine) RestoreStates(states []isa.State) error {
	if len(states) != len(m.vcpus) {
		return fmt.Errorf("machine: restoring %d states onto %d vcpus", len(states), len(m.vcpus))
	}
	for i, v := range m.vcpus {
		v.cpu.Restore(states[i])
	}
	return nil
}

// Snapshot is a whole-machine capture: physical memory (copy-on-write,
// frame-granular) plus every vCPU's architectural state. It is what a
// verification rig needs to prove a patch cycle left no residue.
type Snapshot struct {
	Mem    *mem.Snapshot
	States []isa.State
}

// Snapshot captures memory and vCPU state. Like States, it is only
// meaningful while the machine is paused or otherwise quiescent.
// Memory is captured copy-on-write, so the cost is independent of how
// much of physical memory is resident.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{Mem: m.Mem.Snapshot(), States: m.States()}
}

// RestoreSnapshot rewinds memory and vCPU state to the capture. The
// snapshot stays valid and can be restored again.
func (m *Machine) RestoreSnapshot(s *Snapshot) error {
	if s == nil {
		return errors.New("machine: nil snapshot")
	}
	if err := m.Mem.Restore(s.Mem); err != nil {
		return err
	}
	return m.RestoreStates(s.States)
}

// callReq is one function-call session submitted to a vCPU.
type callReq struct {
	entry    uint64
	args     []uint64
	maxSteps int
	done     chan callRes
}

type callRes struct {
	ret uint64
	err error
}

// VCPU is one virtual CPU with a dedicated runner goroutine and kernel
// stack.
type VCPU struct {
	ID int

	cpu      *isa.CPU
	runner   isa.Runner
	stackTop uint64
	machine  *Machine
	reqs     chan *callReq
}

// EngineStats returns the vCPU's block-cache counters and true when the
// dispatch mode uses the block engine (blocks or lockstep). Only
// meaningful while the vCPU is quiescent (no session in flight).
func (v *VCPU) EngineStats() (isa.EngineStats, bool) {
	switch r := v.runner.(type) {
	case *isa.Engine:
		return r.Stats(), true
	case *isa.Lockstep:
		return r.Engine().Stats(), true
	}
	return isa.EngineStats{}, false
}

// run is the vCPU runner goroutine: it executes submitted call
// sessions instruction by instruction, honoring the pause gate between
// steps.
func (v *VCPU) run() {
	for req := range v.reqs {
		res := v.execute(req)
		req.done <- res
	}
}

// execute runs one call session. Every access to the vCPU's
// architectural state happens inside a gate bracket, so a paused
// machine exposes stable state to States/RestoreStates.
func (v *VCPU) execute(req *callReq) callRes {
	c := v.cpu
	g := &v.machine.gate

	g.beginStep()
	c.Reg = [isa.NumRegs]uint64{}
	c.Reg[isa.RegSP] = v.stackTop
	for i, a := range req.args {
		c.Reg[1+i] = a
	}
	// Push the stop sentinel.
	c.Reg[isa.RegSP] -= 8
	err := c.M.WriteU64(c.Priv, c.Reg[isa.RegSP], isa.StopAddr)
	c.RIP = req.entry
	g.endStep()
	if err != nil {
		return callRes{err: err}
	}

	// Dispatch units (one basic block, or one instruction under the
	// oracle) execute inside one gate bracket each: an SMI still lands
	// at an architectural instruction boundary — units commit RIP
	// before yielding — just a coarser one than single-stepping.
	for steps := 0; ; {
		g.beginStep()
		if c.Done() {
			ret := c.Reg[0]
			g.endStep()
			return callRes{ret: ret}
		}
		if steps >= req.maxSteps {
			g.endStep()
			return callRes{err: isa.ErrStepLimit}
		}
		n, err := v.runner.RunUnit(req.maxSteps - steps)
		g.endStep()
		if err != nil {
			return callRes{err: err}
		}
		if n < 1 {
			n = 1
		}
		steps += n
	}
}

// Call runs the function at entry on this vCPU with up to five
// arguments, blocking until the session completes. It is safe to call
// from multiple goroutines; sessions on one vCPU serialize.
func (v *VCPU) Call(entry uint64, maxSteps int, args ...uint64) (uint64, error) {
	if len(args) > 5 {
		return 0, fmt.Errorf("vcpu %d: too many arguments (%d)", v.ID, len(args))
	}
	req := &callReq{entry: entry, args: args, maxSteps: maxSteps, done: make(chan callRes, 1)}

	v.machine.mu.Lock()
	stopped := v.machine.stopped
	v.machine.mu.Unlock()
	if stopped {
		return 0, ErrStopped
	}
	v.reqs <- req
	res := <-req.done
	return res.ret, res.err
}

// pauseGate coordinates the SMI world switch. Every instruction
// executes inside a beginStep/endStep bracket (a read lock); pause()
// takes the write lock, which blocks new brackets from opening and
// waits until all open ones close, so when it returns the machine is
// quiescent at instruction boundaries — exactly the guarantee SMM
// hardware gives the handler. The write lock is held until resume(),
// and concurrent pausers serialize on it.
type pauseGate struct {
	rw     sync.RWMutex
	paused atomic.Bool
}

// beginStep opens an instruction execution bracket, parking while the
// machine is paused.
func (g *pauseGate) beginStep() { g.rw.RLock() }

// endStep closes the bracket opened by beginStep.
func (g *pauseGate) endStep() { g.rw.RUnlock() }

// pause requests a world switch and returns once no instruction is in
// flight.
func (g *pauseGate) pause() {
	g.rw.Lock()
	g.paused.Store(true)
}

// resume releases parked vCPUs.
func (g *pauseGate) resume() {
	g.paused.Store(false)
	g.rw.Unlock()
}

func (g *pauseGate) isPaused() bool { return g.paused.Load() }
