package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The host-speed reference. On a shared 2-vCPU VM the host's speed
// drifts by more than the benchmark's bounds over minutes, without the
// benchmark being descheduled. So every wall metric is scaled by the
// speed of a fixed reference loop, measured in short slices
// interleaved through set-up and the timed phase. The loop mixes the
// kinds of work the workloads spend CPU on: hashing, map lookups in a
// cache-resident table, atomic adds and multi-word multiplication (the
// inner loop of the modular exponentiation the patch channel runs). It
// does not allocate: interleaved with a workload, slices of math/big's
// Exp, which allocates, spread 0.26-0.33 (IQR/median) from slice to
// slice within a run, against 0.06 for hashing alone.

// refRate0 is the reference rate (units per second) of the host the
// figures are quoted for: a normalised metric reads in ordinary units
// on a host that runs the reference loop this fast.
const refRate0 = 350000.0

// hostRef runs the reference loop on par goroutines at once, as many
// as the workload keeps units of work in flight, and keeps each
// slice's rate.
type hostRef struct {
	units   int // units per slice and goroutine
	workers []*refWorker

	rates []float64 // units/s per goroutine, one per slice
}

// refWorker is one goroutine's reference state.
type refWorker struct {
	buf   [1024]byte
	table map[uint64]uint64
	keep  [64][]byte
	ctr   atomic.Uint64
	n     uint64

	x, y, prod big.Int
}

const refTableSize = 1 << 10

func newHostRef(unitsPerSlice, par int) *hostRef {
	h := &hostRef{units: unitsPerSlice}
	for i := 0; i < par; i++ {
		h.workers = append(h.workers, newRefWorker())
	}
	return h
}

func newRefWorker() *refWorker {
	h := &refWorker{table: make(map[uint64]uint64, refTableSize)}
	for i := range h.buf {
		h.buf[i] = byte(i * 131)
	}
	for i := uint64(0); i < refTableSize; i++ {
		h.table[i*0x9E3779B97F4A7C15] = i
	}
	h.x.Lsh(big.NewInt(3), 2040)
	h.y.Lsh(big.NewInt(5), 2030)
	h.prod.Mul(&h.x, &h.y) // sizes prod, so later products reuse its words
	return h
}

// unit is one fixed piece of reference work.
func (h *refWorker) unit() {
	h.n++
	binary.LittleEndian.PutUint64(h.buf[:8], h.n)
	sum := sha256.Sum256(h.buf[:])
	k := binary.LittleEndian.Uint64(sum[:8])
	var acc uint64
	for i := uint64(0); i < 64; i++ {
		acc += h.table[((k+i)&(refTableSize-1))*0x9E3779B97F4A7C15]
		h.ctr.Add(acc | 1)
	}
	h.prod.Mul(&h.x, &h.y)
	h.buf[8] = byte(acc) ^ byte(h.prod.Bits()[0])
}

// slice runs one timed slice and records its rate. The collector is
// held off for the slice: turning it off waits for any mark phase the
// workload left running to finish, so no slice shares the host with
// the workload's garbage collection.
func (h *hostRef) slice() {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range h.workers {
		wg.Add(1)
		go func(w *refWorker) {
			defer wg.Done()
			for i := 0; i < h.units; i++ {
				w.unit()
			}
		}(w)
	}
	wg.Wait()
	h.rates = append(h.rates, float64(h.units)/time.Since(start).Seconds())
}

// rate is R_run: the median slice rate of the run.
func (h *hostRef) rate() float64 { return median(h.rates) }

// normaliser scales raw wall measurements to a host of reference speed.
type normaliser struct{ speed float64 } // R_run / R0

func newNormaliser(refRate float64) normaliser { return normaliser{speed: refRate / refRate0} }

// time scales a duration-like value: a faster host reads shorter.
func (n normaliser) time(raw float64) float64 { return raw * n.speed }

// rate scales a per-second value: a faster host reads higher.
func (n normaliser) rate(raw float64) float64 { return raw / n.speed }
