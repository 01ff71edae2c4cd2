package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// yardstick measures how fast the host is while a run's ops execute. The
// box the benchmark runs on is a small guest of a shared host, and what the
// neighbours do moves the speed of identical code by 10-25 % for minutes at
// a time: a drift that neither a longer run nor a median inside the run
// averages out, because it outlasts the run (README.md, "Host speed"). So a
// run interleaves a fixed piece of work of the benchmark's own with its ops,
// one call after every op, and scales its timings by how long that work took
// against yardRefNs: the result line reports them as they would read on a
// host at the reference speed.
//
// The work has two parts of about equal length, one for each thing the host
// was seen to slow: independent arithmetic chains (a busy sibling hardware
// thread) and a pointer chase over 64 MB (the shared cache, memory latency
// and the TLB). It allocates nothing, and its memory is mapped outside the
// Go heap, so the garbage collector of an in-process workload paces itself
// as it would without it.
type yardstick struct {
	mu    sync.Mutex // serve-mixed's clients share one yardstick
	mem   []byte
	next  []uint32 // mem as line-index pointers, one per cache line
	at    uint32   // current line of the chase
	durs  []int64  // one per call, ns
	total time.Duration
	sink  uint64
}

const (
	yardLineWords = 64 / 4 // uint32 words per cache line
	yardLines     = 64 << 20 / 64
	yardBytes     = yardLines * 64

	yardALUIters   = 300_000
	yardChaseSteps = 3_000

	// yardRefNs is what one call took on the builder's box in a quiet spell.
	// It only fixes the scale of the reported timings.
	yardRefNs = 1_500_000
)

// newYardstick maps and links the chase. calls sizes the sample buffer, so
// that recording a call allocates nothing.
func newYardstick(calls int) (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, yardBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the yardstick's memory: %w", err)
	}
	y := &yardstick{
		mem:  mem,
		next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), yardBytes/4),
		durs: make([]int64, 0, calls),
	}
	// Join the lines into one random cycle (Sattolo's shuffle of the
	// identity), each line holding the index of the next, so that the chase
	// visits every line once before it repeats and no prefetcher can follow
	// it. Writing every line also makes every page resident.
	for i := 0; i < yardLines; i++ {
		y.next[i*yardLineWords] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := yardLines - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		y.next[i*yardLineWords], y.next[j*yardLineWords] = y.next[j*yardLineWords], y.next[i*yardLineWords]
	}
	return y, nil
}

// run does the fixed work once and records how long it took.
func (y *yardstick) run() {
	y.mu.Lock()
	defer y.mu.Unlock()
	start := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < yardALUIters; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c*7 + 3
		d = d*9 + 4
		e ^= e<<13 | 1
		f += f>>3 + 7
		g = g*11 + 5
		h ^= h>>7 + 9
	}
	y.sink += a + b + c + d + e + f + g + h
	p := y.at
	for i := 0; i < yardChaseSteps; i++ {
		p = y.next[p*yardLineWords]
	}
	y.at = p
	took := time.Since(start)
	y.durs = append(y.durs, int64(took))
	y.total += took
}

// slowdown is the median call against the reference: above 1 on a host
// slower than the reference, below on a faster one.
func (y *yardstick) slowdown() float64 {
	return percentile(y.durs, 50) / yardRefNs
}

func (y *yardstick) close() {
	syscall.Munmap(y.mem) // the mapping is private and anonymous: nothing to lose
}
