package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// refMem is a deliberately naive flat-array model of Physical used as
// the differential-fuzz oracle: one contiguous byte slice, linear
// region scans, per-byte permission checks. It shares no code with the
// sparse store, so agreement between the two is evidence the frame
// bookkeeping, COW cloning, and region-table swaps preserve the
// original semantics.
type refMem struct {
	size uint64
	data []byte
	regs []*refRegion
}

type refRegion struct {
	name       string
	base, size uint64
	perms      [numPriv]Perm
}

func newRefMem(size uint64) *refMem {
	return &refMem{size: size, data: make([]byte, size)}
}

func (f *refMem) find(addr uint64) *refRegion {
	for _, r := range f.regs {
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

func (f *refMem) mapRegion(name string, base, size uint64, ps Perms) error {
	if size == 0 {
		return errors.New("zero size")
	}
	if base+size < base || base+size > f.size {
		return errors.New("out of bounds")
	}
	for _, r := range f.regs {
		if r.name == name {
			return errors.New("duplicate name")
		}
		if base < r.base+r.size && r.base < base+size {
			return errors.New("overlap")
		}
	}
	f.regs = append(f.regs, &refRegion{
		name: name, base: base, size: size,
		perms: [numPriv]Perm{PrivUser: ps.User, PrivKernel: ps.Kernel, PrivEnclave: ps.Enclave, PrivSMM: ps.SMM},
	})
	return nil
}

func (f *refMem) unmap(name string) error {
	for i, r := range f.regs {
		if r.name == name {
			f.regs = append(f.regs[:i], f.regs[i+1:]...)
			return nil
		}
	}
	return errors.New("no such region")
}

// access validates [addr, addr+n) byte by byte, reproducing Physical's
// fault details (first offending address and its region name) from
// first principles.
func (f *refMem) access(priv Priv, kind Access, addr, n uint64) *Fault {
	if n == 0 {
		return nil
	}
	if addr+n < addr || addr+n > f.size {
		return &Fault{Priv: priv, Access: kind, Addr: addr}
	}
	for off := addr; off < addr+n; off++ {
		r := f.find(off)
		if r == nil {
			return &Fault{Priv: priv, Access: kind, Addr: off}
		}
		if !r.perms[priv].allows(kind) {
			return &Fault{Priv: priv, Access: kind, Addr: off, Region: r.name}
		}
		// Skip to the end of this region: permissions are uniform
		// inside it, so re-checking every byte only costs time.
		off = r.base + r.size - 1
	}
	return nil
}

// execSpan reports whether any byte of the mapped span [addr, addr+n)
// lies in a region some privilege level may execute: exactly the writes
// that must bump Physical's code epoch.
func (f *refMem) execSpan(addr, n uint64) bool {
	for off := addr; off < addr+n; off++ {
		r := f.find(off)
		if r == nil {
			continue
		}
		if (r.perms[PrivUser]|r.perms[PrivKernel]|r.perms[PrivEnclave]|r.perms[PrivSMM])&PermX != 0 {
			return true
		}
		off = r.base + r.size - 1
	}
	return false
}

// sameFault compares an error from Physical against the oracle fault.
func sameFault(err error, want *Fault) bool {
	if want == nil {
		return err == nil
	}
	var got *Fault
	if !errors.As(err, &got) {
		return false
	}
	return got.Priv == want.Priv && got.Access == want.Access &&
		got.Addr == want.Addr && got.Region == want.Region
}

// fuzzRegions is the palette of mappings the fuzz interpreter can
// toggle: overlapping candidates, mixed permissions, a frame-unaligned
// region with an executable neighbour meeting it inside one frame, and
// one butting against the end of physical memory.
var fuzzRegions = []struct {
	name string
	base uint64
	size uint64
	ps   Perms
}{
	{"ram", 0, 4 * FrameSize, Perms{Kernel: PermRW, User: PermR}},
	{"text", 4 * FrameSize, 2 * FrameSize, Perms{Kernel: PermRX, SMM: PermRWX}},
	{"odd", 6*FrameSize + 0x123, FrameSize / 2, Perms{Kernel: PermRW}},
	{"wide", 2 * FrameSize, 8 * FrameSize, Perms{Kernel: PermRWX}}, // overlaps ram/text/odd
	{"tail", fuzzPhysSize - FrameSize/4, FrameSize / 4, Perms{SMM: PermRW}},
	{"gap", 10 * FrameSize, FrameSize, Perms{Enclave: PermRW}},
	{"oddx", 6*FrameSize + 0x8123, 0x100, Perms{Kernel: PermRW, SMM: PermRWX}}, // meets "odd" mid-frame
}

const fuzzPhysSize = 16 * FrameSize // 1 MiB: 16 frames, cheap to diff flat

// FuzzSparseMemAccess feeds random op sequences to the sparse store
// and the flat oracle and requires byte- and fault-identical behavior,
// including across Map/Unmap epoch bumps (which must invalidate the
// fetch RegionCache) and Snapshot/Restore cycles. Every successful
// write, zero and WriteU64 must move the code epoch by exactly one when
// its span touches executable memory, and not at all otherwise.
//
// Each op is six bytes: kind, priv (or palette index), and four bytes
// of address and length. ReadU64/WriteU64 decode the address exactly —
// frame index, then a 16-bit offset — so seeds can place them on every
// offset that crosses a frame boundary and on region edges.
func FuzzSparseMemAccess(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0x13, 0x37, 0xFF, 0x00, 0xAA, 0x55, 0x21, 0x42, 0x63, 0x84, 0xA5, 0xC6})
	f.Add(bytes.Repeat([]byte{0x2F, 0x90, 0x04, 0x71}, 16))
	const opMap, opReadU64, opWriteU64 = 4, 8, 9
	const user, kernel, smm = 0, 1, 3
	u64 := func(op, priv byte, addr uint64) []byte {
		return []byte{op, priv, byte(addr >> FrameShift), byte(addr >> 8), byte(addr), byte(addr>>3) ^ op}
	}
	mapping := func(idx ...byte) (out []byte) {
		for _, i := range idx {
			out = append(out, opMap, i, 0, 0, 0, 0)
		}
		return out
	}
	// Every offset from FrameSize-8 to FrameSize-1, written then read:
	// inside one region (ram, text), across a region edge that is also
	// a frame edge (ram into text), and at the end of physical memory.
	seed := mapping(0, 1, 2, 4, 6)
	for off := uint64(FrameSize - 8); off < FrameSize; off++ {
		for _, a := range []struct {
			priv byte
			addr uint64
		}{{kernel, off}, {kernel, 3*FrameSize + off}, {smm, 3*FrameSize + off}, {smm, 4*FrameSize + off}, {smm, 15*FrameSize + off}} {
			seed = append(seed, u64(opWriteU64, a.priv, a.addr)...)
			seed = append(seed, u64(opReadU64, a.priv, a.addr)...)
		}
	}
	f.Add(seed)
	// Region edges inside one frame: into odd from unmapped memory, from
	// odd into its executable neighbour, and out of that neighbour.
	seed = mapping(2, 6)
	for _, edge := range []uint64{6*FrameSize + 0x123, 6*FrameSize + 0x8123, 6*FrameSize + 0x8223} {
		for a := edge - 8; a <= edge; a++ {
			for _, p := range []byte{kernel, smm, user} {
				seed = append(seed, u64(opWriteU64, p, a)...)
				seed = append(seed, u64(opReadU64, p, a)...)
			}
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(fuzzPhysSize)
		ref := newRefMem(fuzzPhysSize)
		var cache RegionCache
		var snap *Snapshot
		var refSnap []byte

		// take consumes k bytes from ops (zero-padded at the tail).
		take := func(k int) []byte {
			out := make([]byte, k)
			copy(out, ops)
			ops = ops[min(len(ops), k):]
			return out
		}
		checkEpoch := func(step int, what string, before uint64, exec bool) {
			t.Helper()
			want := before
			if exec {
				want++
			}
			if got := m.CodeEpoch(); got != want {
				t.Fatalf("step %d: %s moved the code epoch %d -> %d, want %d", step, what, before, got, want)
			}
		}

		for step := 0; len(ops) > 0 && step < 512; step++ {
			b := take(4)
			op := b[0] % 10
			priv := Priv(b[1]%4) + 1
			addr := (uint64(b[2])<<8 | uint64(b[3])) * 67 % (fuzzPhysSize + FrameSize) // may exceed size
			lb := take(2)
			n := (uint64(lb[0])<<8 | uint64(lb[1])) % (FrameSize + 17) // spans ≤ 2 frame boundaries
			if op == opReadU64 || op == opWriteU64 {
				addr = uint64(b[2]%17)<<FrameShift | uint64(b[3])<<8 | uint64(lb[0]) // may exceed size
			}

			switch op {
			case 0: // Read
				got := make([]byte, n)
				err := m.Read(priv, addr, got)
				want := ref.access(priv, Read, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: read(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 && !bytes.Equal(got, ref.data[addr:addr+n]) {
					t.Fatalf("step %d: read(%v,%#x,%d) bytes diverge", step, priv, addr, n)
				}
			case 1: // Write
				src := bytes.Repeat([]byte{b[1] ^ b[2]}, int(n))
				for i := range src {
					src[i] += byte(i)
				}
				ep := m.CodeEpoch()
				err := m.Write(priv, addr, src)
				want := ref.access(priv, Write, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: write(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 {
					copy(ref.data[addr:], src)
				}
				checkEpoch(step, "write", ep, err == nil && ref.execSpan(addr, n))
			case 2: // Fetch through the per-CPU cache
				got := make([]byte, n)
				err := m.FetchCached(priv, addr, got, &cache)
				want := ref.access(priv, Execute, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: fetch(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 && !bytes.Equal(got, ref.data[addr:addr+n]) {
					t.Fatalf("step %d: fetch(%v,%#x,%d) bytes diverge", step, priv, addr, n)
				}
			case 3: // Zero
				ep := m.CodeEpoch()
				err := m.Zero(priv, addr, n)
				want := ref.access(priv, Write, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: zero(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 {
					clear(ref.data[addr : addr+n])
				}
				checkEpoch(step, "zero", ep, err == nil && ref.execSpan(addr, n))
			case 4: // Map from the palette
				spec := fuzzRegions[int(b[1])%len(fuzzRegions)]
				_, err := m.Map(spec.name, spec.base, spec.size, spec.ps)
				refErr := ref.mapRegion(spec.name, spec.base, spec.size, spec.ps)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("step %d: map %q: got %v, oracle %v", step, spec.name, err, refErr)
				}
			case 5: // Unmap from the palette
				name := fuzzRegions[int(b[1])%len(fuzzRegions)].name
				err := m.Unmap(name)
				refErr := ref.unmap(name)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("step %d: unmap %q: got %v, oracle %v", step, name, err, refErr)
				}
			case 6: // Snapshot and cross-check DiffFrames
				snap = m.Snapshot()
				refSnap = append([]byte(nil), ref.data...)
				fallthrough
			case 7: // DiffFrames against the flat oracle
				if snap == nil {
					continue
				}
				dirty, err := m.DiffFrames(snap)
				if err != nil {
					t.Fatalf("step %d: diff: %v", step, err)
				}
				var want []uint64
				for fr := uint64(0); fr < fuzzPhysSize/FrameSize; fr++ {
					a := fr * FrameSize
					if !bytes.Equal(ref.data[a:a+FrameSize], refSnap[a:a+FrameSize]) {
						want = append(want, fr)
					}
				}
				if fmt.Sprint(dirty) != fmt.Sprint(want) {
					t.Fatalf("step %d: dirty frames %v, oracle %v", step, dirty, want)
				}
				if op == 7 && b[1]&1 == 1 { // sometimes restore
					if err := m.Restore(snap); err != nil {
						t.Fatalf("step %d: restore: %v", step, err)
					}
					copy(ref.data, refSnap)
				}
			case opReadU64:
				got, err := m.ReadU64(priv, addr)
				want := ref.access(priv, Read, addr, 8)
				if !sameFault(err, want) {
					t.Fatalf("step %d: ReadU64(%v,%#x) fault mismatch: got %v want %v", step, priv, addr, err, want)
				}
				if err == nil && got != binary.LittleEndian.Uint64(ref.data[addr:]) {
					t.Fatalf("step %d: ReadU64(%v,%#x) = %#x, oracle % x", step, priv, addr, got, ref.data[addr:addr+8])
				}
			case opWriteU64:
				v := uint64(lb[1])*0x0101_0101_0101_0101 ^ uint64(step)<<8 ^ addr
				ep := m.CodeEpoch()
				err := m.WriteU64(priv, addr, v)
				want := ref.access(priv, Write, addr, 8)
				if !sameFault(err, want) {
					t.Fatalf("step %d: WriteU64(%v,%#x) fault mismatch: got %v want %v", step, priv, addr, err, want)
				}
				if err == nil {
					binary.LittleEndian.PutUint64(ref.data[addr:], v)
				}
				checkEpoch(step, "WriteU64", ep, err == nil && ref.execSpan(addr, 8))
			}
		}
	})
}
