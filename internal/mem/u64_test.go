package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"kshot/internal/faultinject"
)

// execRecorder is an Introspector that records every event.
type execRecorder struct {
	writes []execWrite
	epochs []uint64
}

type execWrite struct {
	addr  uint64
	n     int
	epoch uint64
}

func (r *execRecorder) OnExecWrite(addr uint64, n int, epoch uint64) {
	r.writes = append(r.writes, execWrite{addr, n, epoch})
}

func (r *execRecorder) OnCodeEpoch(epoch uint64) { r.epochs = append(r.epochs, epoch) }

// WriteU64 finishes a store exactly like an 8-byte Write: one code-epoch
// bump and one OnExecWrite(addr, 8, epoch) when the span touches memory
// some privilege level may execute — in the frame-local fast path, across
// a frame boundary, and across a region edge inside one frame — and
// neither for plain data.
func TestWriteU64ExecWriteNotifies(t *testing.T) {
	const text, data = 4*FrameSize + 0x100, 8 * FrameSize // text starts mid-frame
	for _, tc := range []struct {
		name string
		priv Priv
		addr uint64
		exec bool
	}{
		{"text in frame", PrivSMM, text + 0x40, true},
		{"text across frames", PrivSMM, 5*FrameSize - 4, true},
		{"data into text inside a frame", PrivSMM, text - 4, true},
		{"data in frame", PrivKernel, data + 0x40, false},
		{"data across frames", PrivKernel, data + FrameSize - 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(16 * FrameSize)
			mustMap(t, m, "below", 0, text, Perms{Kernel: PermRW, SMM: PermRW})
			mustMap(t, m, "text", text, 2*FrameSize, Perms{Kernel: PermRX, SMM: PermRWX})
			mustMap(t, m, "data", data, 4*FrameSize, Perms{Kernel: PermRW, SMM: PermRW})
			rec := &execRecorder{}
			m.SetIntrospector(rec)
			ep0 := m.CodeEpoch()

			const v = 0x0102_0304_0506_0708
			if err := m.WriteU64(tc.priv, tc.addr, v); err != nil {
				t.Fatalf("WriteU64: %v", err)
			}
			if got, err := m.ReadU64(tc.priv, tc.addr); err != nil || got != v {
				t.Fatalf("ReadU64 = %#x, %v; want %#x", got, err, uint64(v))
			}
			var want []execWrite
			if tc.exec {
				want = []execWrite{{tc.addr, 8, ep0 + 1}}
			}
			if got := m.CodeEpoch() - ep0; got != uint64(len(want)) {
				t.Fatalf("code epoch moved by %d, want %d", got, len(want))
			}
			if len(rec.writes) != len(want) || (len(want) == 1 && rec.writes[0] != want[0]) {
				t.Fatalf("OnExecWrite calls %+v, want %+v", rec.writes, want)
			}
			if len(rec.epochs) != 0 {
				t.Fatalf("unexpected OnCodeEpoch calls %v", rec.epochs)
			}
		})
	}
}

// A WriteU64 into mem_W under an armed injector faults or corrupts
// exactly as the equivalent 8-byte Write does: same error, same bytes,
// same injector consumption.
func TestWriteU64InjectionMatchesWrite(t *testing.T) {
	const v = 0xA5A5_5A5A_0FF0_F00F
	for _, tc := range []struct {
		name   string
		faults []faultinject.Fault
		off    int64 // from WBase
	}{
		{"fault", []faultinject.Fault{{Point: faultinject.MemWFault, Call: 0}}, 0x100},
		{"corrupt", []faultinject.Fault{{Point: faultinject.MemWCorrupt, Call: 0, Bit: 21}}, 0x100},
		{"fault from mem_RW", []faultinject.Fault{{Point: faultinject.MemWFault, Call: 0}}, -4},
		{"corrupt across frames", []faultinject.Fault{{Point: faultinject.MemWCorrupt, Call: 0, Bit: 60}}, FrameSize - 4},
		{"armed, not firing", []faultinject.Fault{{Point: faultinject.MemWFault, Call: 5}}, 0x100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(u64 bool) (error, []byte, int) {
				m, res := newReserved(t)
				fi := faultinject.New(faultinject.Exact(tc.faults...))
				m.SetFaultInjector(fi)
				addr := uint64(int64(res.WBase()) + tc.off)
				var err error
				if u64 {
					err = m.WriteU64(PrivKernel, addr, v)
				} else {
					b := make([]byte, 8)
					binary.LittleEndian.PutUint64(b, v)
					err = m.Write(PrivKernel, addr, b)
				}
				got := make([]byte, 8)
				if rerr := m.Read(PrivSMM, addr, got); rerr != nil {
					t.Fatal(rerr)
				}
				return err, got, fi.Calls(faultinject.MemWFault) + fi.Calls(faultinject.MemWCorrupt)
			}
			wErr, wBytes, wCalls := run(false)
			uErr, uBytes, uCalls := run(true)
			var wf, uf *Fault
			if (wErr == nil) != (uErr == nil) || (wErr != nil && (!errors.As(wErr, &wf) || !errors.As(uErr, &uf) || *wf != *uf)) {
				t.Fatalf("WriteU64 error %v, Write error %v", uErr, wErr)
			}
			if !bytes.Equal(uBytes, wBytes) {
				t.Fatalf("WriteU64 left % x, Write left % x", uBytes, wBytes)
			}
			if uCalls != wCalls || uCalls == 0 {
				t.Fatalf("injector consulted %d times by WriteU64, %d by Write (want equal, non-zero)", uCalls, wCalls)
			}
		})
	}
}

// The interpreter's per-instruction accesses allocate nothing: in-frame
// ReadU64/WriteU64 (load/store/push/pop) and short Read/FetchCached into
// a caller's stack buffer.
func TestAccessAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	m := New(4 * FrameSize)
	mustMap(t, m, "text", 0, FrameSize, Perms{Kernel: PermRX, SMM: PermRWX})
	mustMap(t, m, "ram", FrameSize, 2*FrameSize, Perms{Kernel: PermRW})
	if err := m.WriteU64(PrivKernel, FrameSize, 1); err != nil { // materialize the frame
		t.Fatal(err)
	}
	if err := m.Write(PrivSMM, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	var cache RegionCache
	for _, tc := range []struct {
		name string
		fn   func() error
	}{
		{"ReadU64", func() error { _, err := m.ReadU64(PrivKernel, FrameSize+0x80); return err }},
		{"WriteU64", func() error { return m.WriteU64(PrivKernel, FrameSize+0x80, 42) }},
		{"Read16", func() error {
			var b [16]byte
			return m.Read(PrivKernel, FrameSize+0x80, b[:])
		}},
		{"FetchCached16", func() error {
			var b [16]byte
			return m.FetchCached(PrivKernel, 0x10, b[:], &cache)
		}},
	} {
		var err error
		if allocs := testing.AllocsPerRun(100, func() { err = tc.fn() }); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, allocs)
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
