package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between closest ranks; 0 for an empty set.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so -repeat
// reports the same spread the acceptance check computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// hostRef is the reference operation that measures how fast the host is
// running right now. The sandbox's hosts are shared: the same binary on
// the same inputs runs up to 1.6× slower for tens of seconds at a time,
// which no statistic over a run's ops can remove. The reference op is a
// fixed mix of what the control plane itself does — a sort (branches),
// string-keyed map lookups and a small map build (hashing, allocation),
// and a dependent-load chase over 16 MiB (cache misses) — so that it
// slows down when the benchmark does. One slice runs between every two
// ops, untimed. `-repeat` prints raw and calibrated spreads side by side:
// that is the check that it tracks.
type hostRef struct {
	ints, scratch []int
	keys          []string
	byKey         map[string]*[4]int
	chase         []uint32
	pos           uint32
	sink          int
}

// refSliceMs defines the unit of every calibrated time: milliseconds on
// a host that runs one reference slice in exactly this long (the sandbox
// the first baseline was recorded on, in its fast state, so that there
// calibrated and raw milliseconds agree). It sets the scale only; the
// ratio of two runs' calibrated times does not depend on it.
const refSliceMs = 3.3

func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(1))
	h := &hostRef{
		ints:  make([]int, 12000),
		keys:  make([]string, 30000),
		byKey: make(map[string]*[4]int, 30000),
		chase: make([]uint32, 16<<20/4),
	}
	h.scratch = make([]int, len(h.ints))
	for i := range h.ints {
		h.ints[i] = rng.Int()
	}
	for i := range h.keys {
		h.keys[i] = "fleet/j" + strconv.Itoa(i*7919) + "#" + strconv.Itoa(i%8)
		h.byKey[h.keys[i]] = &[4]int{i}
	}
	x := uint32(2463534242)
	for i := range h.chase {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		h.chase[i] = x
	}
	for i := 0; i < 3; i++ {
		h.slice()
	}
	return h
}

// slice runs the reference op once and returns its wall time in ms.
func (h *hostRef) slice() float64 {
	start := time.Now()
	copy(h.scratch, h.ints)
	sort.Ints(h.scratch)
	t := h.scratch[0]
	for i := 0; i < 6000; i++ {
		h.pos = (h.pos + 7919) % uint32(len(h.keys))
		t += h.byKey[h.keys[h.pos]][0]
	}
	small := make(map[string]int, 64)
	for i := uint32(0); i < 512; i++ {
		small[h.keys[(h.pos+i)%uint32(len(h.keys))]] = int(i)
	}
	mask := uint32(len(h.chase) - 1)
	p := h.pos
	for i := 0; i < 8000; i++ {
		p = (p*2654435761 + h.chase[p&mask]) & mask
	}
	h.sink += t + len(small) + int(p)
	return float64(time.Since(start)) / 1e6
}

// slices runs the reference op n times and returns the times.
func (h *hostRef) slices(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = h.slice()
	}
	return out
}

// cpuNow returns the process's cumulative user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounter reads the cumulative heap-object allocation count without
// stopping the world (runtime.ReadMemStats would, once per op).
type allocCounter struct{ sample []runtimemetrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{sample: []runtimemetrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) now() uint64 {
	runtimemetrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

// gcPercent reads GOGC as the runtime applies it; the only way to read
// it is to set it.
func gcPercent() int {
	p := debug.SetGCPercent(100)
	debug.SetGCPercent(p)
	return p
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// meter measures wall time, CPU time and heap allocations over the timed
// part of one op, leaving the harness's own verification out.
type meter struct {
	allocs *allocCounter
	t0     time.Time
	c0     time.Duration
	a0     uint64
}

func newMeter() *meter { return &meter{allocs: newAllocCounter()} }

func (m *meter) start() {
	m.a0 = m.allocs.now()
	m.c0 = cpuNow()
	m.t0 = time.Now()
}

// stop ends the timed window and returns what it cost.
func (m *meter) stop() (wall, cpu time.Duration, mallocs uint64) {
	wall = time.Since(m.t0)
	return wall, cpuNow() - m.c0, m.allocs.now() - m.a0
}
