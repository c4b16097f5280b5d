package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The speed of the reference host drifts with its neighbours even when
// nothing is stolen from it: shared caches and sibling hyperthreads made the
// same engine batch take 0.685 s, then 0.557 s, twenty minutes later, and
// whole A/A sets of this benchmark came out 10-20% apart. A frozen kernel of
// the benchmark's own, run beside the measurement, drifts with it: over
// those twenty minutes the medians of windows of twenty samples ranged over
// 20% for the engine batch and over 7.7% for the ratio of the two (quartile
// distance 8.8% against 3.0%). So every run takes a slice of the kernel
// before each pass or segment, and scales its gated times to a host on which
// a slice takes calibNominal. A change to the engine cannot move the kernel:
// it is this file and nothing else.
//
// The kernel is a small two-hit seed-and-extend loop, the mix of work the
// engine does: word lookup along a 128 KiB subject, a last-hit slot per
// diagonal in a 512 KiB array, an X-drop extension where two hits pair. It
// fits the L2 cache the way one index block does.

const (
	calibNominal = 100 * time.Millisecond // one slice on the reference host in a middling hour
	calibRounds  = 60
)

type calibKernel struct {
	subject []byte
	query   []byte
	lookup  [24 * 24 * 24][]uint16 // word -> query offsets
	last    []uint16               // diagonal -> last hit
	matrix  [24][24]int8
}

func newCalibKernel(seed uint64) *calibKernel {
	k := &calibKernel{subject: make([]byte, 128<<10), query: make([]byte, 256), last: make([]uint16, 256<<10)}
	x := seed
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range k.subject {
		k.subject[i] = byte(next() % 20)
	}
	for i := range k.query {
		k.query[i] = byte(next() % 20)
	}
	for i := range k.matrix {
		for j := range k.matrix[i] {
			k.matrix[i][j] = int8(next()%6) - 4
		}
		k.matrix[i][i] = 5
	}
	// Every query word and 25 random "neighbours" of it.
	for q := 0; q+3 <= len(k.query); q++ {
		w := int(k.query[q])*576 + int(k.query[q+1])*24 + int(k.query[q+2])
		k.lookup[w] = append(k.lookup[w], uint16(q))
		for n := 0; n < 25; n++ {
			w := next() % uint64(len(k.lookup))
			k.lookup[w] = append(k.lookup[w], uint16(q))
		}
	}
	return k
}

func (k *calibKernel) run(rounds int) (sum int) {
	mask := len(k.last) - 1
	s := k.subject
	for r := 0; r < rounds; r++ {
		clear(k.last)
		for pos := 0; pos+3 <= len(s); pos++ {
			w := int(s[pos])*576 + int(s[pos+1])*24 + int(s[pos+2])
			for _, qo := range k.lookup[w] {
				d := (pos - int(qo) + 4096) & mask
				prev := int(k.last[d])
				k.last[d] = uint16(pos)
				if dist := pos&0xffff - prev; dist > 0 && dist < 40 {
					score, best := 0, 0
					for i := 0; i < 64 && int(qo)+i < len(k.query) && pos+i < len(s); i++ {
						score += int(k.matrix[k.query[int(qo)+i]][s[pos+i]])
						if score > best {
							best = score
						} else if best-score > 16 {
							break
						}
					}
					sum += best
				}
			}
		}
	}
	return sum
}

// speedometer takes calibration slices on w goroutines, as many as the
// measured phases keep busy.
type speedometer struct {
	kernels []*calibKernel
	slices  []float64 // seconds, since the last reset
	sink    int
}

func newSpeedometer(w int) *speedometer {
	s := &speedometer{}
	for i := 0; i < w; i++ {
		s.kernels = append(s.kernels, newCalibKernel(uint64(88172645463325252+i)))
	}
	return s
}

// slice runs the kernel once on every goroutine and records how long it
// took, as the CPU time of the threads it ran on: neither stolen time, nor
// an idle moment, nor another goroutine at work beside it (serve_ingest's
// writer) lengthens that. It runs outside every timer.
func (s *speedometer) slice() {
	sums := make([]int, len(s.kernels))
	cpu := make([]time.Duration, len(s.kernels))
	var wg sync.WaitGroup
	for i, k := range s.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			sums[i] = k.run(calibRounds)
			cpu[i] = threadCPU() - c0
		}()
	}
	wg.Wait()
	var total time.Duration
	for i := range cpu {
		total += cpu[i]
		s.sink += sums[i]
	}
	s.slices = append(s.slices, total.Seconds()/float64(len(cpu)))
}

// forget drops the slices taken so far, those beside a warm-up.
func (s *speedometer) forget() { s.slices = nil }

// speed is how fast the host ran during the slices taken since the last
// call, relative to the nominal host: a time measured beside them,
// multiplied by it, is the time the nominal host would have taken.
func (s *speedometer) speed() float64 {
	if len(s.slices) == 0 {
		return 1
	}
	v := calibNominal.Seconds() / median(s.slices)
	fmt.Printf("host speed: %.3f of nominal over %d calibration slices (%.1f..%.1f ms)\n",
		v, len(s.slices), 1000*quantile(s.slices, 0), 1000*quantile(s.slices, 1))
	s.slices = nil
	return v
}
