package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestMapDuplicateNameRejected(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "ram", 0, 1<<20, Perms{Kernel: PermRW})
	if _, err := m.Map("ram", 2<<20, 1<<20, Perms{Kernel: PermRW}); err == nil {
		t.Fatal("duplicate region name accepted")
	}
	// The failed Map must not have disturbed the original mapping.
	r := m.Region("ram")
	if r == nil || r.Base != 0 {
		t.Fatalf("original region damaged by rejected Map: %+v", r)
	}
	if err := m.Write(PrivKernel, 0x100, []byte{1}); err != nil {
		t.Fatalf("write after rejected Map: %v", err)
	}
	// The name stays usable after an Unmap.
	if err := m.Unmap("ram"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("ram", 2<<20, 1<<20, Perms{Kernel: PermRW}); err != nil {
		t.Fatalf("remap after unmap: %v", err)
	}
}

func TestLazyAllocation(t *testing.T) {
	m := New(1 << 30) // 1 GB simulated; nothing resident
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("fresh memory resident = %d", got)
	}
	mustMap(t, m, "ram", 0, 1<<30, Perms{Kernel: PermRW})
	// Reads of never-written memory observe zeros without allocating.
	buf := make([]byte, 4096)
	if err := m.Read(PrivKernel, 512<<20, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("read materialized %d bytes", got)
	}
	// A one-byte write materializes exactly one frame.
	if err := m.Write(PrivKernel, 512<<20, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if got := m.ResidentBytes(); got != FrameSize {
		t.Fatalf("resident = %d, want one frame (%d)", got, FrameSize)
	}
}

func TestSnapshotRestoreDiff(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "ram", 0, 4<<20, Perms{Kernel: PermRW})

	orig := []byte("pristine contents")
	if err := m.Write(PrivKernel, 0x100, orig); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if dirty, err := m.DiffFrames(snap); err != nil || len(dirty) != 0 {
		t.Fatalf("diff right after snapshot = %v, %v", dirty, err)
	}

	// Dirty two separate frames.
	if err := m.Write(PrivKernel, 0x100, []byte("overwritten!!")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(PrivKernel, 3*FrameSize+5, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	dirty, err := m.DiffFrames(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 3 {
		t.Fatalf("dirty frames = %v, want [0 3]", dirty)
	}
	// Range-restricted diff sees only the overlapping frame.
	dirty, err = m.DiffFramesIn(snap, 3*FrameSize, FrameSize)
	if err != nil || len(dirty) != 1 || dirty[0] != 3 {
		t.Fatalf("ranged diff = %v, %v", dirty, err)
	}
	if got := FrameAddr(dirty[0]); got != 3*FrameSize {
		t.Fatalf("FrameAddr(3) = %#x", got)
	}

	// Restore rewinds contents; the snapshot stays reusable.
	for round := 0; round < 2; round++ {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(orig))
		if err := m.Read(PrivKernel, 0x100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("round %d: restored %q, want %q", round, got, orig)
		}
		if dirty, err := m.DiffFrames(snap); err != nil || len(dirty) != 0 {
			t.Fatalf("round %d: diff after restore = %v, %v", round, dirty, err)
		}
		// Re-dirty for the second round.
		if err := m.Write(PrivKernel, 0x100, []byte("scribble")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotCOWIsolation(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "ram", 0, 1<<20, Perms{Kernel: PermRW})
	if err := m.Write(PrivKernel, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	// Writing through the live store must not leak into the snapshot.
	if err := m.Write(PrivKernel, 0, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := m.Read(PrivKernel, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("snapshot mutated by post-snapshot write: %v", got)
	}
}

func TestSnapshotZeroedFrameDiff(t *testing.T) {
	// A frame written before the snapshot and zeroed after it differs
	// (released slot vs recorded bytes); a frame that was zero both
	// times is equal even though its pointer changed shape.
	m := newTestMem(t)
	mustMap(t, m, "ram", 0, 1<<20, Perms{Kernel: PermRW})
	if err := m.Write(PrivKernel, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Zero(PrivKernel, 0, FrameSize); err != nil {
		t.Fatal(err)
	}
	dirty, err := m.DiffFrames(snap)
	if err != nil || len(dirty) != 1 || dirty[0] != 0 {
		t.Fatalf("diff after zeroing written frame = %v, %v", dirty, err)
	}
	// Materialize a frame with zeros where the snapshot has nil: the
	// bytes are identical, so it must not report dirty.
	if err := m.Write(PrivKernel, 2*FrameSize, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	dirty, err = m.DiffFramesIn(snap, 2*FrameSize, FrameSize)
	if err != nil || len(dirty) != 0 {
		t.Fatalf("all-zero materialized frame reported dirty: %v, %v", dirty, err)
	}
}

func TestSnapshotForeignRejected(t *testing.T) {
	m1, m2 := newTestMem(t), newTestMem(t)
	snap := m1.Snapshot()
	if err := m2.Restore(snap); err == nil {
		t.Fatal("foreign snapshot restored")
	}
	if _, err := m2.DiffFrames(snap); err == nil {
		t.Fatal("foreign snapshot diffed")
	}
	if err := m1.Restore(nil); err == nil {
		t.Fatal("nil snapshot restored")
	}
}

func TestZeroSemantics(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "rw", 0, 4*FrameSize, Perms{Kernel: PermRW})
	mustMap(t, m, "ro", 4*FrameSize, FrameSize, Perms{Kernel: PermR})

	// Fill a span crossing three frames, then zero the middle of it.
	fill := bytes.Repeat([]byte{0x5A}, 3*FrameSize)
	if err := m.Write(PrivKernel, 0, fill); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(PrivKernel, FrameSize/2, 2*FrameSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*FrameSize)
	if err := m.Read(PrivKernel, 0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		in := uint64(i) >= FrameSize/2 && uint64(i) < FrameSize/2+2*FrameSize
		if in && b != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
		if !in && b != 0x5A {
			t.Fatalf("byte %d outside the span clobbered", i)
		}
	}

	// Zero validates like Write: read-only and unmapped ranges fault
	// with the same fault a Write would raise.
	err := m.Zero(PrivKernel, 4*FrameSize, 16)
	var f *Fault
	if !errors.As(err, &f) || f.Access != Write || f.Region != "ro" {
		t.Fatalf("zero of read-only region: %v", err)
	}
	err = m.Zero(PrivKernel, 20*FrameSize, 16)
	if !errors.As(err, &f) || f.Region != "" {
		t.Fatalf("zero of unmapped range: %v", err)
	}

	// Whole-frame zeroing releases backing storage.
	before := m.ResidentBytes()
	if err := m.Write(PrivKernel, 3*FrameSize, bytes.Repeat([]byte{1}, FrameSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(PrivKernel, 3*FrameSize, FrameSize); err != nil {
		t.Fatal(err)
	}
	if after := m.ResidentBytes(); after > before {
		t.Fatalf("whole-frame zero kept storage: %d -> %d", before, after)
	}
}

// TestConcurrentDisjointFrames is the -race stress test: vCPU-like
// writers hammer disjoint frames while snapshots and diffs run
// concurrently. Each writer must always read back its own last write
// (disjoint frames never interfere), and the race detector must stay
// quiet across the sharded locking and COW paths.
func TestConcurrentDisjointFrames(t *testing.T) {
	m := New(64 << 20)
	mustMap(t, m, "ram", 0, 64<<20, Perms{Kernel: PermRW})

	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 4 * FrameSize
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				// Cross a frame boundary on odd rounds.
				addr := base + uint64(i%2)*(FrameSize-32)
				want := byte(w<<4 | i&0xF)
				for j := range buf {
					buf[j] = want
				}
				if err := m.Write(PrivKernel, addr, buf); err != nil {
					errc <- err
					return
				}
				got := make([]byte, len(buf))
				if err := m.Read(PrivKernel, addr, got); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("worker %d round %d: read back %x, want %x", w, i, got[0], want)
					return
				}
				// The 8-byte fast path shares the frames, the shard
				// locks and the copy-on-write clone with Write.
				u := base + 2*FrameSize + uint64(i%8)*8
				v := uint64(w)<<32 | uint64(i)
				if err := m.WriteU64(PrivKernel, u, v); err != nil {
					errc <- err
					return
				}
				if got, err := m.ReadU64(PrivKernel, u); err != nil || got != v {
					t.Errorf("worker %d round %d: ReadU64 = %#x, %v; want %#x", w, i, got, err, v)
					return
				}
			}
		}(w)
	}
	// Concurrent snapshot/diff traffic over the same frames.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			s := m.Snapshot()
			if _, err := m.DiffFrames(s); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
