package mem

import (
	"bytes"
	"errors"
	"testing"

	"kshot/internal/faultinject"
)

func newReserved(t *testing.T) (*Physical, *Reserved) {
	t.Helper()
	m := New(64 << 20)
	res, err := MapReserved(m, 0x100_0000)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// An injected mem_W access fault rejects the helper's staging write
// exactly like a hardware permission fault, leaving memory untouched.
func TestInjectedMemWFault(t *testing.T) {
	m, res := newReserved(t)
	m.SetFaultInjector(faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
	)))

	err := m.Write(PrivUser, res.WBase(), []byte("staged package"))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("write error = %v, want *Fault", err)
	}
	if f.Region != RegionMemW {
		t.Fatalf("fault region %q, want %q", f.Region, RegionMemW)
	}
	// The scheduled fault fired once; the retried write succeeds.
	if err := m.Write(PrivUser, res.WBase(), []byte("staged package")); err != nil {
		t.Fatalf("second write: %v", err)
	}
}

// An injected corruption flips exactly one bit of the staged bytes —
// the caller's buffer stays intact, and SMM sees the corrupted copy.
func TestInjectedMemWCorruption(t *testing.T) {
	m, res := newReserved(t)
	m.SetFaultInjector(faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWCorrupt, Call: 0, Bit: 9},
	)))

	src := bytes.Repeat([]byte{0xA5}, 16)
	orig := append([]byte(nil), src...)
	if err := m.Write(PrivKernel, res.WBase(), src); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(src, orig) {
		t.Fatal("injection mutated the caller's buffer")
	}

	got := make([]byte, 16)
	if err := m.Read(PrivSMM, res.WBase(), got); err != nil {
		t.Fatalf("SMM read: %v", err)
	}
	diff := 0
	for i := range got {
		b := got[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits differ in memory, want exactly 1", diff)
	}
}

// SMM's own writes into mem_W are exempt: the handler is trusted
// firmware, not part of the hostile hand-off surface.
func TestInjectionExemptsSMMWrites(t *testing.T) {
	m, res := newReserved(t)
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
		faultinject.Fault{Point: faultinject.MemWCorrupt, Call: 0},
	))
	m.SetFaultInjector(fi)

	src := []byte{1, 2, 3, 4}
	if err := m.Write(PrivSMM, res.WBase(), src); err != nil {
		t.Fatalf("SMM write: %v", err)
	}
	got := make([]byte, 4)
	if err := m.Read(PrivSMM, res.WBase(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("SMM write corrupted: %v", got)
	}
	if fi.Calls(faultinject.MemWFault) != 0 {
		t.Fatal("SMM write consulted the injector")
	}
}

// Writes outside mem_W never consult the injector, and removing the
// injector restores clean behavior.
func TestInjectionScopedToMemW(t *testing.T) {
	m, res := newReserved(t)
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
	))
	m.SetFaultInjector(fi)

	if err := m.Write(PrivKernel, res.RWBase(), []byte{7}); err != nil {
		t.Fatalf("mem_RW write consulted mem_W injection: %v", err)
	}
	if fi.Calls(faultinject.MemWFault) != 0 {
		t.Fatal("non-mem_W write advanced the injector")
	}

	m.SetFaultInjector(nil)
	if err := m.Write(PrivUser, res.WBase(), []byte{7}); err != nil {
		t.Fatalf("write after removing injector: %v", err)
	}
}

// Injection keys on any overlap with mem_W, not on the region the span
// starts in: a write or zero that begins in mem_RW and runs into mem_W
// is a helper deposit into the staging area all the same. The fault
// names mem_W and its first byte, and nothing of the span lands.
func TestInjectionCoversSpansIntoMemW(t *testing.T) {
	m, res := newReserved(t)
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
		faultinject.Fault{Point: faultinject.MemWFault, Call: 1},
	))
	m.SetFaultInjector(fi)
	addr := res.WBase() - 4 // 4 bytes in mem_RW, 4 in mem_W

	for i, op := range []func() error{
		func() error { return m.Write(PrivKernel, addr, bytes.Repeat([]byte{0xEE}, 8)) },
		func() error { return m.Zero(PrivKernel, addr, 8) },
	} {
		if i == 1 { // give Zero something to clear
			if err := m.Write(PrivSMM, addr, bytes.Repeat([]byte{0x11}, 8)); err != nil {
				t.Fatal(err)
			}
		}
		before := make([]byte, 8)
		if err := m.Read(PrivSMM, addr, before); err != nil {
			t.Fatal(err)
		}
		err := op()
		var f *Fault
		if !errors.As(err, &f) || f.Region != RegionMemW || f.Addr != res.WBase() {
			t.Fatalf("op %d: error = %v, want injected *Fault in %q at %#x", i, err, RegionMemW, res.WBase())
		}
		if got := fi.Calls(faultinject.MemWFault); got != i+1 {
			t.Fatalf("op %d: MemWFault consulted %d times, want %d", i, got, i+1)
		}
		after := make([]byte, 8)
		if err := m.Read(PrivSMM, addr, after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("op %d: faulted span changed memory: % x -> % x", i, before, after)
		}
	}

	// A corruption flips a bit of the part of the span in mem_W, never
	// of the mem_RW bytes before it: bit 3 counts from WBase().
	m.SetFaultInjector(faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWCorrupt, Call: 0, Bit: 3},
	)))
	src := bytes.Repeat([]byte{0x5A}, 8)
	if err := m.Write(PrivKernel, addr, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := m.Read(PrivSMM, addr, got); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(src)
	want[res.WBase()-addr] ^= 1 << 3
	if !bytes.Equal(got, want) {
		t.Fatalf("corrupted span = % x, want % x (bit 3 at WBase() flipped)", got, want)
	}
}
