// Package mem models the physical memory of the simulated target
// machine, including page-attribute access control enforced per
// privilege level.
//
// KShot's security argument depends on hardware-enforced answers to the
// question "who may read, write, or execute this physical region?":
// SMRAM is only reachable from System Management Mode, the Enclave Page
// Cache is only reachable from enclave mode, and the reserved KShot
// region is split into read/write, write-only, and execute-only parts
// (mem_RW, mem_W, mem_X) from the kernel's point of view. This package
// enforces exactly those checks in software so that a forbidden access
// faults the same way the hardware would.
//
// Storage is sparse: physical memory is backed by 64 KiB frames
// allocated lazily on first write (see sparse.go), so constructing a
// machine costs nothing proportional to its physical size, reads of
// never-written memory observe zeros without allocating, and
// copy-on-write snapshots share clean frames with the live store.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"kshot/internal/faultinject"
)

// Priv is the privilege level performing an access. It mirrors the four
// execution contexts that matter to KShot: untrusted userspace, the
// (possibly compromised) kernel, SGX enclave mode, and SMM.
type Priv int

// Privilege levels, ordered least to most privileged. The ordering is
// informational only: access decisions come from the region attribute
// table, never from numeric comparison, because real SGX/SMM privileges
// are not a strict hierarchy (the kernel cannot read the EPC even
// though it is "more privileged" than an enclave).
const (
	PrivUser Priv = iota + 1
	PrivKernel
	PrivEnclave
	PrivSMM

	numPriv = 5 // array dimension; index 0 unused
)

// String returns the conventional name of the privilege level.
func (p Priv) String() string {
	switch p {
	case PrivUser:
		return "user"
	case PrivKernel:
		return "kernel"
	case PrivEnclave:
		return "enclave"
	case PrivSMM:
		return "smm"
	default:
		return fmt.Sprintf("priv(%d)", int(p))
	}
}

// Access is the kind of memory access being attempted.
type Access int

// Access kinds.
const (
	Read Access = iota + 1
	Write
	Execute
)

// String returns the access kind name.
func (a Access) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	default:
		return fmt.Sprintf("access(%d)", int(a))
	}
}

// Perm is a permission bitmask attached to a region for one privilege
// level.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX

	PermNone Perm = 0
	PermRW        = PermR | PermW
	PermRX        = PermR | PermX
	PermRWX       = PermR | PermW | PermX
)

// String renders the permission as an "rwx"-style triple.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// allows reports whether the permission admits the given access kind.
func (p Perm) allows(a Access) bool {
	switch a {
	case Read:
		return p&PermR != 0
	case Write:
		return p&PermW != 0
	case Execute:
		return p&PermX != 0
	default:
		return false
	}
}

// Fault describes a rejected or unmapped memory access. It is returned
// as an error from Physical access methods and can be matched with
// errors.As.
type Fault struct {
	Priv   Priv
	Access Access
	Addr   uint64
	Region string // region name, or "" if the address is unmapped
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Region == "" {
		return fmt.Sprintf("memory fault: %s %s at %#x: unmapped", f.Priv, f.Access, f.Addr)
	}
	return fmt.Sprintf("memory fault: %s %s at %#x: denied by region %q", f.Priv, f.Access, f.Addr, f.Region)
}

// Region is a contiguous range of physical memory with per-privilege
// access permissions. Geometry (Name, Base, Size) is immutable after
// Map; the permission table is updated atomically by SetPerms, so
// readers on the access fast path never take a lock for it.
type Region struct {
	Name string
	Base uint64
	Size uint64

	// perms packs the [numPriv]Perm table into one word (8 bits per
	// level) so SetPerms can swap it atomically under concurrent
	// accesses.
	perms atomic.Uint64
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// PermFor returns the permissions the region grants to the given
// privilege level.
func (r *Region) PermFor(p Priv) Perm {
	if p <= 0 || int(p) >= numPriv {
		return PermNone
	}
	return Perm(r.perms.Load() >> (8 * uint(p)))
}

// execAnyMask selects the X bit of every privilege level in the packed
// permission word.
const execAnyMask = uint64(PermX)<<(8*uint(PrivUser)) |
	uint64(PermX)<<(8*uint(PrivKernel)) |
	uint64(PermX)<<(8*uint(PrivEnclave)) |
	uint64(PermX)<<(8*uint(PrivSMM))

// execAny reports whether any privilege level may execute from the
// region — i.e. whether a write into it can change code some CPU might
// run, which is what the code epoch (CodeEpoch) tracks.
func (r *Region) execAny() bool { return r.perms.Load()&execAnyMask != 0 }

// Perms describes per-privilege permissions when creating or updating a
// region. Omitted levels default to no access.
type Perms struct {
	User    Perm
	Kernel  Perm
	Enclave Perm
	SMM     Perm
}

func (ps Perms) pack() uint64 {
	return uint64(ps.User)<<(8*uint(PrivUser)) |
		uint64(ps.Kernel)<<(8*uint(PrivKernel)) |
		uint64(ps.Enclave)<<(8*uint(PrivEnclave)) |
		uint64(ps.SMM)<<(8*uint(PrivSMM))
}

// regionTable is an immutable snapshot of the mapped regions. Map and
// Unmap publish a fresh table (with a bumped epoch) via an atomic
// pointer swap, so the access path reads it without locking and
// RegionCache entries can be validated with a single epoch compare.
type regionTable struct {
	epoch  uint64
	sorted []*Region // by Base, non-overlapping
	byName map[string]*Region
}

// at returns the region containing addr, by binary search.
func (t *regionTable) at(addr uint64) *Region {
	lo, hi := 0, len(t.sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		r := t.sorted[mid]
		switch {
		case addr < r.Base:
			hi = mid
		case addr >= r.End():
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// Physical is the machine's physical memory: a sparse frame store
// overlaid with access-controlled regions. The zero value is unusable;
// construct with New.
//
// Physical is safe for concurrent use. All vCPUs, the SMM handler and
// enclave threads share one Physical. Accesses to disjoint frames
// proceed in parallel (locking is sharded by frame); accesses that
// touch the same frame serialize, so the simulator itself stays
// data-race free even when the simulated kernel races.
type Physical struct {
	size uint64

	tab   atomic.Pointer[regionTable]
	mapMu sync.Mutex // serializes Map/Unmap table swaps

	// Sparse frame store; see sparse.go.
	frames []atomic.Pointer[frame]
	shards [lockShards]sync.RWMutex

	// fi, when non-nil, injects faults into non-SMM writes to the
	// mem_W staging region (bit flips, access faults) for the chaos
	// suite. Nil in production paths.
	fi atomic.Pointer[faultinject.Set]

	// codeGen counts every event after which previously fetched code
	// may be stale: writes or zeroing into an executable region, region
	// map/unmap, permission swaps, and snapshot restores. Predecoded
	// block caches (internal/isa) key on it — an epoch mismatch means
	// "re-decode", which is the entire invalidation protocol.
	codeGen atomic.Uint64

	// intr, when non-nil, receives code-integrity events (writes into
	// executable memory, unattributed code-epoch bumps) for the
	// introspection layer. Published like fi so the disabled path costs
	// one pointer load on the already-rare exec-write branch.
	intr atomic.Pointer[introspectHook]

	// origin, when non-nil, is the Physical this one was forked from
	// (see fork.go). It widens snapshot ownership: a fork accepts
	// snapshots taken of any ancestor, so isolation checks can diff a
	// fork against the template capture.
	origin *Physical
}

// New creates a physical memory of the given size with no mapped
// regions. Every access faults until regions are mapped. No backing
// storage is allocated up front: frames materialize on first write.
func New(size uint64) *Physical {
	m := &Physical{
		size:   size,
		frames: make([]atomic.Pointer[frame], (size+FrameSize-1)>>FrameShift),
	}
	m.tab.Store(&regionTable{byName: map[string]*Region{}})
	return m
}

// Size returns the total physical memory size in bytes.
func (m *Physical) Size() uint64 { return m.size }

// CodeEpoch returns the current code generation: a counter bumped after
// any event that can change bytes some privilege level may execute
// (writes/zeroing into an exec-permitted region, Map/Unmap, SetPerms,
// snapshot Restore). Callers that cache decoded code compare epochs
// before reuse; a mismatch means every cached translation must be
// discarded. The bump is ordered after the memory mutation, so a cache
// populated from a racing read of the old bytes is invalidated by the
// very bump that follows the write.
func (m *Physical) CodeEpoch() uint64 { return m.codeGen.Load() }

// Map adds a region. It returns an error if the range is out of bounds,
// overlaps an existing region, or reuses the name of a mapped region
// (names key Unmap/Region/SetPerms, so they must be unique).
func (m *Physical) Map(name string, base, size uint64, ps Perms) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("map %q: zero size", name)
	}
	if base+size < base || base+size > m.size {
		return nil, fmt.Errorf("map %q: range [%#x,%#x) exceeds physical memory of %#x bytes",
			name, base, base+size, m.size)
	}
	r := &Region{Name: name, Base: base, Size: size}
	r.perms.Store(ps.pack())

	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	tab := m.tab.Load()
	if _, ok := tab.byName[name]; ok {
		return nil, fmt.Errorf("map %q: region name already in use", name)
	}
	for _, other := range tab.sorted {
		if base < other.End() && other.Base < r.End() {
			return nil, fmt.Errorf("map %q: overlaps region %q [%#x,%#x)",
				name, other.Name, other.Base, other.End())
		}
	}
	// Publish a fresh table with r inserted in Base order.
	pos := 0
	for pos < len(tab.sorted) && tab.sorted[pos].Base < base {
		pos++
	}
	sorted := make([]*Region, 0, len(tab.sorted)+1)
	sorted = append(sorted, tab.sorted[:pos]...)
	sorted = append(sorted, r)
	sorted = append(sorted, tab.sorted[pos:]...)
	m.tab.Store(&regionTable{
		epoch:  tab.epoch + 1,
		sorted: sorted,
		byName: withRegion(tab.byName, r),
	})
	m.codeGen.Add(1)
	return r, nil
}

// Unmap removes the named region. Its memory contents are preserved but
// become unreachable until remapped.
func (m *Physical) Unmap(name string) error {
	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	tab := m.tab.Load()
	r, ok := tab.byName[name]
	if !ok {
		return fmt.Errorf("unmap %q: no such region", name)
	}
	sorted := make([]*Region, 0, len(tab.sorted)-1)
	for _, other := range tab.sorted {
		if other != r {
			sorted = append(sorted, other)
		}
	}
	byName := make(map[string]*Region, len(tab.byName)-1)
	for n, other := range tab.byName {
		if n != name {
			byName[n] = other
		}
	}
	m.tab.Store(&regionTable{epoch: tab.epoch + 1, sorted: sorted, byName: byName})
	m.codeGen.Add(1)
	return nil
}

func withRegion(byName map[string]*Region, r *Region) map[string]*Region {
	out := make(map[string]*Region, len(byName)+1)
	for n, other := range byName {
		out[n] = other
	}
	out[r.Name] = r
	return out
}

// Region returns the named region, or nil if absent.
func (m *Physical) Region(name string) *Region {
	return m.tab.Load().byName[name]
}

// Regions returns a snapshot of all mapped regions in address order.
func (m *Physical) Regions() []*Region {
	tab := m.tab.Load()
	out := make([]*Region, len(tab.sorted))
	copy(out, tab.sorted)
	return out
}

// SetPerms atomically replaces the permission table of the named
// region. This models firmware/boot-time attribute changes and the
// SMRAM lock; callers in the simulation are trusted code (boot or SMM).
func (m *Physical) SetPerms(name string, ps Perms) error {
	// mapMu keeps the name lookup stable against a concurrent Unmap of
	// the same name; the permission swap itself is a single atomic
	// store visible to in-flight accesses without any lock.
	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	r, ok := m.tab.Load().byName[name]
	if !ok {
		return fmt.Errorf("set perms %q: no such region", name)
	}
	r.perms.Store(ps.pack())
	ep := m.codeGen.Add(1)
	if h := m.intr.Load(); h != nil {
		h.sink.OnCodeEpoch(ep)
	}
	return nil
}

// SetFaultInjector installs (or, with nil, removes) the fault
// injection set consulted on helper writes into mem_W.
func (m *Physical) SetFaultInjector(fi *faultinject.Set) {
	m.fi.Store(fi)
}

// Introspector receives code-integrity events from the memory layer.
// mem deliberately does not import the introspect package (introspect
// imports mem for its frame-diff sweeps); introspect.Channel satisfies
// this interface and core wires it in.
type Introspector interface {
	// OnExecWrite fires after a write (or zero) lands in executable
	// memory; epoch is the code epoch the write bumped to.
	OnExecWrite(addr uint64, n int, epoch uint64)

	// OnCodeEpoch fires after the code epoch moves without byte
	// attribution (SetPerms, snapshot Restore).
	OnCodeEpoch(epoch uint64)
}

// introspectHook boxes the interface so it can live in an
// atomic.Pointer — the same publication pattern as the fault set, so
// installing or removing an introspector never takes a lock the access
// fast path would notice.
type introspectHook struct{ sink Introspector }

// SetIntrospector installs (or, with nil, removes) the introspection
// sink. The disabled-path cost is one atomic pointer load on the
// already-rare executable-write branch and on mapping changes; data
// reads and writes never see it.
func (m *Physical) SetIntrospector(i Introspector) {
	if i == nil {
		m.intr.Store(nil)
		return
	}
	m.intr.Store(&introspectHook{sink: i})
}

// validateSpan checks that every byte of [addr, addr+n) is mapped with
// the permission the access needs, walking adjacent regions. It returns
// the region containing addr on success. Partial effects never occur:
// the whole span validates before any byte moves.
func (m *Physical) validateSpan(tab *regionTable, priv Priv, kind Access, addr, n uint64) (*Region, error) {
	r := tab.at(addr)
	if r == nil {
		return nil, &Fault{Priv: priv, Access: kind, Addr: addr}
	}
	if !r.PermFor(priv).allows(kind) {
		return nil, &Fault{Priv: priv, Access: kind, Addr: addr, Region: r.Name}
	}
	if addr+n <= r.End() {
		// Fast path: the span is contained in one region.
		return r, nil
	}
	for cur := r.End(); cur < addr+n; {
		next := tab.at(cur)
		if next == nil {
			return nil, &Fault{Priv: priv, Access: kind, Addr: cur}
		}
		if !next.PermFor(priv).allows(kind) {
			return nil, &Fault{Priv: priv, Access: kind, Addr: cur, Region: next.Name}
		}
		cur = next.End()
	}
	return r, nil
}

// access validates and performs a read (dst != nil) or write
// (src != nil) of n bytes at addr on behalf of priv. Accesses may span
// multiple adjacent regions; every byte must be mapped and permitted.
func (m *Physical) access(priv Priv, kind Access, addr uint64, dst, src []byte) error {
	n := uint64(len(dst))
	if src != nil {
		n = uint64(len(src))
	}
	if n == 0 {
		return nil
	}
	if addr+n < addr || addr+n > m.size {
		return &Fault{Priv: priv, Access: kind, Addr: addr}
	}

	tab := m.tab.Load()
	r, err := m.validateSpan(tab, priv, kind, addr, n)
	if err != nil {
		return err
	}
	if dst != nil {
		m.readFrames(addr, dst)
		return nil
	}

	// Fault injection: the helper's deposits into the mem_W staging
	// region are the hand-off buffer KShot must survive losing, wherever
	// in the span they land. SMM's own accesses are exempt — the handler
	// is trusted firmware.
	if fi := m.fi.Load(); fi != nil && priv != PrivSMM {
		if w := tab.spanFind(r, addr, n, isMemW); w != nil {
			if fi.Fire(faultinject.MemWFault) {
				return &Fault{Priv: priv, Access: kind, Addr: max(addr, w.Base), Region: w.Name}
			}
			if f, ok := fi.Take(faultinject.MemWCorrupt); ok {
				// The flipped bit lands in the part of the span that
				// lies in mem_W, the staging area the fault models.
				corrupted := append([]byte(nil), src...)
				f.FlipBit(corrupted[max(addr, w.Base)-addr : min(addr+n, w.End())-addr])
				src = corrupted
			}
		}
	}
	m.writeFrames(addr, src)
	m.noteWrite(tab, r, addr, n)
	return nil
}

func isMemW(r *Region) bool { return r.Name == RegionMemW }

// spanFind returns the first region overlapped by the already-validated
// span [addr, addr+n) starting in r that satisfies pred, or nil. The
// single-region case is one predicate call — cheap enough for every
// store instruction the interpreter retires.
func (t *regionTable) spanFind(r *Region, addr, n uint64, pred func(*Region) bool) *Region {
	for r != nil {
		if pred(r) {
			return r
		}
		if addr+n <= r.End() {
			return nil
		}
		r = t.at(r.End()) // never nil: validateSpan walked this same table
	}
	return nil
}

// noteWrite finishes every mutation of [addr, addr+n): if any region
// the span overlaps is executable at some privilege level, it bumps the
// code epoch (after the bytes landed) and tells the introspector.
func (m *Physical) noteWrite(tab *regionTable, r *Region, addr, n uint64) {
	if tab.spanFind(r, addr, n, (*Region).execAny) == nil {
		return
	}
	ep := m.codeGen.Add(1)
	if h := m.intr.Load(); h != nil {
		h.sink.OnExecWrite(addr, int(n), ep)
	}
}

// Read copies len(dst) bytes from addr into dst on behalf of priv.
func (m *Physical) Read(priv Priv, addr uint64, dst []byte) error {
	return m.access(priv, Read, addr, dst, nil)
}

// Write copies src into memory at addr on behalf of priv.
func (m *Physical) Write(priv Priv, addr uint64, src []byte) error {
	return m.access(priv, Write, addr, nil, src)
}

// Fetch copies len(dst) instruction bytes from addr into dst on behalf
// of priv, checking execute permission. It is used by the CPU
// interpreter's instruction fetch.
func (m *Physical) Fetch(priv Priv, addr uint64, dst []byte) error {
	return m.access(priv, Execute, addr, dst, nil)
}

// RegionCache is a caller-owned single-entry cache for region lookup,
// used by FetchCached. Each vCPU keeps one: the interpreter's fetch
// loop hits the same region (kernel.text) almost every instruction, so
// the binary search and span walk are skipped while the cached region
// still covers the access and no Map/Unmap has occurred since (epoch
// compare). Permissions are re-read on every use, so SetPerms takes
// effect immediately even on cache hits. The zero value is an empty
// cache. A RegionCache must not be shared between goroutines.
type RegionCache struct {
	epoch uint64
	r     *Region
}

// FetchCached is Fetch with a region-lookup cache. Semantics are
// identical to Fetch; only the lookup cost differs.
func (m *Physical) FetchCached(priv Priv, addr uint64, dst []byte, c *RegionCache) error {
	n := uint64(len(dst))
	if n == 0 {
		return nil
	}
	if r := c.r; r != nil && addr >= r.Base && addr+n >= addr && addr+n <= r.End() {
		tab := m.tab.Load()
		if tab.epoch == c.epoch {
			if !r.PermFor(priv).allows(Execute) {
				return &Fault{Priv: priv, Access: Execute, Addr: addr, Region: r.Name}
			}
			m.readFrames(addr, dst)
			return nil
		}
	}
	if err := m.access(priv, Execute, addr, dst, nil); err != nil {
		return err
	}
	tab := m.tab.Load()
	if r := tab.at(addr); r != nil && addr+n <= r.End() {
		c.r, c.epoch = r, tab.epoch
	}
	return nil
}

// Zero clears n bytes at addr on behalf of priv. It validates exactly
// like a Write of n zero bytes, but wholly covered frames are released
// back to the sparse store instead of being cleared byte by byte, so
// scrubbing a large range (a KUP-style whole-kernel replacement) is
// cheap and shrinks resident memory.
func (m *Physical) Zero(priv Priv, addr, n uint64) error {
	if n == 0 {
		return nil
	}
	if addr+n < addr || addr+n > m.size {
		return &Fault{Priv: priv, Access: Write, Addr: addr}
	}
	tab := m.tab.Load()
	r, err := m.validateSpan(tab, priv, Write, addr, n)
	if err != nil {
		return err
	}
	if priv != PrivSMM && m.fi.Load() != nil && tab.spanFind(r, addr, n, isMemW) != nil {
		// Keep injection semantics exactly those of an equivalent
		// Write; the chaos suite never exercises Zero on mem_W, but
		// correctness must not depend on that.
		return m.Write(priv, addr, make([]byte, n))
	}
	m.zeroFrames(addr, n)
	m.noteWrite(tab, r, addr, n)
	return nil
}

// inFrameU64 reports whether the 8 bytes at addr are in bounds and lie
// in one frame: the precondition of the ReadU64/WriteU64 fast path,
// which touches exactly one frame under exactly one shard lock.
func (m *Physical) inFrameU64(addr uint64) bool {
	return addr&(FrameSize-1) <= FrameSize-8 && addr+8 > addr && addr+8 <= m.size
}

// ReadU64 reads a little-endian 64-bit value. It validates exactly like
// an 8-byte Read, and reads a value inside one frame in place.
func (m *Physical) ReadU64(priv Priv, addr uint64) (uint64, error) {
	if !m.inFrameU64(addr) {
		var b [8]byte
		if err := m.Read(priv, addr, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	if _, err := m.validateSpan(m.tab.Load(), priv, Read, addr, 8); err != nil {
		return 0, err
	}
	idx := addr >> FrameShift
	mu := m.shard(idx)
	mu.RLock()
	var v uint64
	if fr := m.frames[idx].Load(); fr != nil {
		v = binary.LittleEndian.Uint64(fr.data[addr&(FrameSize-1):])
	}
	mu.RUnlock()
	return v, nil
}

// WriteU64 writes a little-endian 64-bit value. It validates and
// finishes exactly like an 8-byte Write, and writes a value inside one
// frame in place. Writes the fault injector may see (non-SMM, with an
// injector armed) take the generic path, which owns that logic.
func (m *Physical) WriteU64(priv Priv, addr uint64, v uint64) error {
	if !m.inFrameU64(addr) || (priv != PrivSMM && m.fi.Load() != nil) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return m.Write(priv, addr, b[:])
	}
	tab := m.tab.Load()
	r, err := m.validateSpan(tab, priv, Write, addr, 8)
	if err != nil {
		return err
	}
	idx := addr >> FrameShift
	mu := m.shard(idx)
	mu.Lock()
	binary.LittleEndian.PutUint64(m.writableFrame(idx).data[addr&(FrameSize-1):], v)
	mu.Unlock()
	m.noteWrite(tab, r, addr, 8)
	return nil
}
