package mem

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sparse frame store. Physical memory is split into fixed 64 KiB
// frames, materialized on first write; a nil frame slot reads as
// zeros. Frame access is guarded by sharded rwmutexes (shard = frame
// index mod lockShards) so concurrent vCPUs touching disjoint frames
// never serialize on a global lock, while accesses to the same frame
// still serialize and keep the simulator data-race free.
//
// Snapshots are copy-on-write at frame granularity: Snapshot marks
// every live frame shared and records its pointer; the next write to a
// shared frame clones it first. A frame pointer that still matches the
// snapshot therefore proves the frame's bytes are untouched, which is
// what lets DiffFrames find dirty memory without comparing (or even
// allocating) the clean majority.

const (
	// FrameShift is log2 of the frame size.
	FrameShift = 16
	// FrameSize is the allocation and copy-on-write granule of the
	// sparse store.
	FrameSize = 1 << FrameShift

	// lockShards is the number of frame-lock shards. It must be a
	// power of two no larger than 64 (shard sets are tracked in a
	// uint64 bitmask).
	lockShards = 64
)

// frame is one 64 KiB unit of backing storage.
type frame struct {
	// shared is set while at least one snapshot or forked Physical
	// references this frame; writers must clone instead of mutating in
	// place. The flag is monotonic (set-only): a frame can become
	// cross-referenced, but a clone — the only way back to exclusive
	// ownership — is a fresh frame object. It is atomic rather than
	// shard-lock protected because after Fork the same frame object is
	// reachable from Physicals with independent shard locks; atomicity
	// plus monotonicity keeps the invariant race-free: a frame is only
	// ever published to a second owner *after* shared is set, so a
	// writer that observes shared==false holds the frame exclusively.
	shared atomic.Bool
	data   [FrameSize]byte
}

// shardMask returns the bitmask of lock shards covering frames
// [first, last].
func shardMask(first, last uint64) uint64 {
	if last-first+1 >= lockShards {
		return ^uint64(0)
	}
	var mask uint64
	for f := first; f <= last; f++ {
		mask |= 1 << (f & (lockShards - 1))
	}
	return mask
}

// lockMask acquires the shards in mask, in ascending shard order (the
// global lock order that makes multi-shard holders deadlock-free). It
// visits only the set bits, so a one-frame access takes one lock
// without scanning the other 63 shards.
func (m *Physical) lockMask(mask uint64, write bool) {
	for ; mask != 0; mask &= mask - 1 {
		if i := bits.TrailingZeros64(mask); write {
			m.shards[i].Lock()
		} else {
			m.shards[i].RLock()
		}
	}
}

func (m *Physical) unlockMask(mask uint64, write bool) {
	for ; mask != 0; mask &= mask - 1 {
		if i := bits.TrailingZeros64(mask); write {
			m.shards[i].Unlock()
		} else {
			m.shards[i].RUnlock()
		}
	}
}

// shard returns the lock guarding frame idx.
func (m *Physical) shard(idx uint64) *sync.RWMutex { return &m.shards[idx&(lockShards-1)] }

// writableFrame returns frame idx ready for an in-place write:
// materialized if absent, cloned first if a snapshot or fork shares it.
// The caller holds idx's shard write lock.
func (m *Physical) writableFrame(idx uint64) *frame {
	fr := m.frames[idx].Load()
	switch {
	case fr == nil:
		fr = new(frame)
	case fr.shared.Load():
		cl := new(frame)
		cl.data = fr.data
		fr = cl
	default:
		return fr
	}
	m.frames[idx].Store(fr)
	return fr
}

// readFrames copies [addr, addr+len(dst)) into dst. The span must be
// pre-validated and in bounds. The loop takes no closure, so callers'
// stack buffers stay on the stack.
func (m *Physical) readFrames(addr uint64, dst []byte) {
	mask := shardMask(addr>>FrameShift, (addr+uint64(len(dst))-1)>>FrameShift)
	m.lockMask(mask, false)
	for len(dst) > 0 {
		off := addr & (FrameSize - 1)
		k := min(uint64(len(dst)), FrameSize-off)
		if fr := m.frames[addr>>FrameShift].Load(); fr != nil {
			copy(dst, fr.data[off:])
		} else {
			clear(dst[:k])
		}
		dst, addr = dst[k:], addr+k
	}
	m.unlockMask(mask, false)
}

// writeFrames copies src to [addr, addr+len(src)), materializing or
// cloning frames as needed. The span must be pre-validated and in
// bounds. Holding every covered shard for the whole span keeps
// multi-frame writes atomic with respect to concurrent readers, like
// the single-mutex store this replaces.
func (m *Physical) writeFrames(addr uint64, src []byte) {
	mask := shardMask(addr>>FrameShift, (addr+uint64(len(src))-1)>>FrameShift)
	m.lockMask(mask, true)
	for len(src) > 0 {
		k := copy(m.writableFrame(addr >> FrameShift).data[addr&(FrameSize-1):], src)
		src, addr = src[k:], addr+uint64(k)
	}
	m.unlockMask(mask, true)
}

// zeroFrames clears [addr, addr+n): wholly covered frames are released
// (a nil slot reads as zeros), partially covered edge frames are
// cleared in place (after a copy-on-write clone if shared).
func (m *Physical) zeroFrames(addr, n uint64) {
	first := addr >> FrameShift
	last := (addr + n - 1) >> FrameShift
	mask := shardMask(first, last)
	m.lockMask(mask, true)
	for cur := addr; cur < addr+n; {
		idx := cur >> FrameShift
		base := idx << FrameShift
		end := base + FrameSize
		if cur == base && end <= addr+n {
			m.frames[idx].Store(nil)
			cur = end
			continue
		}
		if end > addr+n {
			end = addr + n
		}
		if m.frames[idx].Load() != nil {
			clear(m.writableFrame(idx).data[cur-base : end-base])
		}
		cur = end
	}
	m.unlockMask(mask, true)
}

// ResidentBytes returns the bytes of backing storage currently
// materialized — the sparse store's actual footprint, as opposed to
// Size(), the simulated physical size.
func (m *Physical) ResidentBytes() uint64 {
	st := m.ResidentStats()
	return st.SharedBytes + st.PrivateBytes
}

// ResidentStats is ResidentBytes split by ownership.
type ResidentStats struct {
	// SharedBytes counts resident frames that may also back a
	// snapshot, the fork template, or sibling forks — the memory a
	// fleet of forks amortizes across targets.
	SharedBytes uint64
	// PrivateBytes counts resident frames this Physical owns
	// exclusively — its copy-on-write dirty set.
	PrivateBytes uint64
}

// ResidentStats returns the materialized footprint split into frames
// shared with snapshots/forks versus frames private to this Physical.
// For a forked System the private figure is the true marginal memory
// cost of that fork.
func (m *Physical) ResidentStats() ResidentStats {
	var st ResidentStats
	for i := range m.frames {
		mu := m.shard(uint64(i))
		mu.RLock()
		fr := m.frames[i].Load()
		if fr != nil {
			if fr.shared.Load() {
				st.SharedBytes += FrameSize
			} else {
				st.PrivateBytes += FrameSize
			}
		}
		mu.RUnlock()
	}
	return st
}

// Snapshot is a frame-granular copy-on-write capture of a Physical's
// contents. Taking one is O(frames) pointer work — no memory is
// copied; the store copies a frame only when it is next written.
// Snapshots stay valid until the Physical is garbage; Restore and
// DiffFrames accept only snapshots of the same Physical.
type Snapshot struct {
	m      *Physical
	frames []*frame // nil entries are all-zero frames
}

// Snapshot captures the current memory contents copy-on-write. It does
// not capture the region table: mappings and permissions evolve
// independently of contents, exactly as physical RAM is independent of
// attribute programming.
func (m *Physical) Snapshot() *Snapshot {
	s := &Snapshot{m: m, frames: make([]*frame, len(m.frames))}
	m.lockMask(^uint64(0), true)
	for i := range m.frames {
		fr := m.frames[i].Load()
		if fr != nil {
			fr.shared.Store(true)
		}
		s.frames[i] = fr
	}
	m.unlockMask(^uint64(0), true)
	return s
}

// Restore rewinds memory contents to the snapshot. The snapshot
// remains valid (and copy-on-write protected), so the same snapshot
// can be restored repeatedly — the reset step of a chaos cycle. A
// forked Physical may also restore a snapshot of any ancestor in its
// fork chain (rewinding the fork to template state); the ancestor is
// unaffected, since restored frames stay copy-on-write.
func (m *Physical) Restore(s *Snapshot) error {
	if s == nil || !m.ownsSnapshot(s) {
		return errSnapshotForeign
	}
	m.lockMask(^uint64(0), true)
	for i, fr := range s.frames {
		if fr != nil {
			fr.shared.Store(true)
		}
		m.frames[i].Store(fr)
	}
	m.unlockMask(^uint64(0), true)
	// Restoring swaps frame contents without going through access(), so
	// any cached code translation may now be stale.
	ep := m.codeGen.Add(1)
	if h := m.intr.Load(); h != nil {
		h.sink.OnCodeEpoch(ep)
	}
	return nil
}

// DiffFrames returns the indices of frames whose bytes differ from the
// snapshot, in ascending order. Frames still sharing the snapshot's
// backing pointer are equal by construction and are skipped without a
// byte compare; only frames written since the snapshot (or written
// before it and zeroed since, etc.) are compared content-wise, so a
// pristine-byte sweep costs O(dirty), not O(physical size). Use
// FrameAddr to map an index to its physical base address.
func (m *Physical) DiffFrames(s *Snapshot) ([]uint64, error) {
	return m.diffFrames(s, 0, m.size)
}

// DiffFramesIn is DiffFrames restricted to frames overlapping
// [base, base+size).
func (m *Physical) DiffFramesIn(s *Snapshot, base, size uint64) ([]uint64, error) {
	return m.diffFrames(s, base, size)
}

var errSnapshotForeign = errSnapshot{}

type errSnapshot struct{}

func (errSnapshot) Error() string { return "mem: snapshot belongs to a different Physical" }

// ownsSnapshot reports whether s was taken of m or of an ancestor in
// m's fork chain. Ancestor snapshots are byte-compatible: Fork
// preserves size and frame geometry, so diffing a fork against its
// template's snapshot is exactly the "what did this fork touch?"
// question the isolation suite asks.
func (m *Physical) ownsSnapshot(s *Snapshot) bool {
	for p := m; p != nil; p = p.origin {
		if s.m == p {
			return true
		}
	}
	return false
}

func (m *Physical) diffFrames(s *Snapshot, base, size uint64) ([]uint64, error) {
	if s == nil || !m.ownsSnapshot(s) {
		return nil, errSnapshotForeign
	}
	if size == 0 {
		return nil, nil
	}
	first := base >> FrameShift
	last := (base + size - 1) >> FrameShift
	if last >= uint64(len(m.frames)) {
		last = uint64(len(m.frames)) - 1
	}
	var dirty []uint64
	m.lockMask(^uint64(0), false)
	for idx := first; idx <= last; idx++ {
		cur := m.frames[idx].Load()
		old := s.frames[idx]
		if cur == old {
			continue // shared frames never mutate, so pointer-equal means byte-equal
		}
		if !framesEqual(cur, old) {
			dirty = append(dirty, idx)
		}
	}
	m.unlockMask(^uint64(0), false)
	return dirty, nil
}

// framesEqual compares two frames, treating nil as all zeros.
func framesEqual(a, b *frame) bool {
	switch {
	case a == nil && b == nil:
		return true
	case a == nil:
		return isZero(b.data[:])
	case b == nil:
		return isZero(a.data[:])
	default:
		return bytes.Equal(a.data[:], b.data[:])
	}
}

var zeroFrameData [FrameSize]byte

func isZero(b []byte) bool { return bytes.Equal(b, zeroFrameData[:]) }

// FrameAddr returns the physical base address of frame idx.
func FrameAddr(idx uint64) uint64 { return idx << FrameShift }
