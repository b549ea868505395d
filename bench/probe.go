package main

import (
	"math/rand"
	"sort"
	"time"
)

// speedProbe is a fixed piece of work (≈0.5 ms on the sandbox this was
// sized on) run after every timed operation. It touches what the
// controller touches — integer arithmetic, a map, small allocations, a
// sort, dependent loads over a ring larger than the private caches — so a
// host that slows the controller (a busy sibling thread, a lower clock, a
// polluted cache) slows the probe by about the same factor. It cannot see
// time the scheduler gives to others between two probes; the per-index
// minimum across repetitions is the defence against that. It depends on
// nothing in the repository and must never change: every reference second
// the benchmark reports is a ratio to it.
type speedProbe struct {
	state uint64
	buf   []uint64
	keys  []int
	m     map[uint64]uint32
	sink  [][]byte
	ring  []uint32 // one random cycle through 4 MB
	at    uint32
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		state: 0x9e3779b97f4a7c15,
		buf:   make([]uint64, 8192),
		keys:  make([]int, 2048),
		m:     make(map[uint64]uint32, 4096),
		sink:  make([][]byte, 32),
		ring:  make([]uint32, 1<<20),
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(p.ring))
	for i, v := range perm {
		p.ring[v] = uint32(perm[(i+1)%len(perm)])
	}
	return p
}

// run executes the kernel once and returns its wall time in nanoseconds.
func (p *speedProbe) run() float64 {
	t0 := time.Now()
	x := p.state
	for i := range p.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.buf[i] = x
	}
	for _, v := range p.buf {
		p.m[v&4095]++
	}
	at := p.at
	for i := 0; i < 1024; i++ {
		at = p.ring[at]
	}
	p.at = at
	for i := range p.sink {
		p.sink[i] = make([]byte, 64+i)
	}
	for i := range p.keys {
		p.keys[i] = int(p.buf[i] >> 40)
	}
	sort.Ints(p.keys)
	p.state = x ^ uint64(p.keys[0])
	return float64(time.Since(t0).Nanoseconds())
}

// opSeries is a sequence of timed operations, each followed by one probe.
type opSeries struct {
	ns    []float64
	probe []float64
}

// time runs fn, records its wall time and the probe that follows it, and
// returns fn's error.
func (s *opSeries) time(p *speedProbe, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.add(p, float64(time.Since(t0).Nanoseconds()))
	return err
}

// add records an operation timed by the caller, then runs the probe.
func (s *opSeries) add(p *speedProbe, ns float64) {
	s.ns = append(s.ns, ns)
	s.probe = append(s.probe, p.run())
}

// normalised returns the operations' times in reference nanoseconds.
func (s *opSeries) normalised() []float64 { return normalise(s.ns, s.probe) }
