package main

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed calibration.
//
// On a shared host the speed of the vCPUs drifts for minutes at a time
// with the load of other tenants: the same emulate op took 5.0 s and
// 3.0 s within one run. So an untraced run also times a fixed kernel,
// before every epoch of ops and after the last, and reports its time
// metrics scaled by calRef over the kernel's median time: host seconds
// at the speed at which the kernel takes calRef. The kernel does the
// kinds of work the emulator does (allocating small objects in fresh
// memory, map updates and lookups, integer arithmetic) on GOMAXPROCS
// goroutines, and calls nothing in the program, so a change to the
// program does not move it.

// calRef is the kernel's median time on the 2-vCPU Xeon VM the
// benchmark's bounds were set on, so scaled times read close to host
// times there.
const calRef = 0.15

// epoch is how long the clients run between two calibrations. An
// emulate op is longer, so those workloads calibrate between ops.
const epoch = 2 * time.Second

// calibrate times the kernel with the collector off, on a heap just
// returned to the OS, so neither the program's garbage nor the size of
// its live heap changes the kernel's time: with the collector on, a
// 10 MB live heap made the kernel 60% slower, because its collections
// marked the program's heap too. Afterwards the kernel's garbage is
// collected and free memory returned to the OS again, so the next op
// does not pay for the kernel, and every epoch starts from the same
// footprint: one epoch's high-water mark does not carry into the
// next. The resident set is not sampled meanwhile.
func calibrate() float64 {
	rssPaused.Store(true)
	defer rssPaused.Store(false)
	debug.FreeOSMemory()
	gc := debug.SetGCPercent(-1)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calSink.Add(calKernel(uint64(i) + 1))
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	debug.SetGCPercent(gc)
	debug.FreeOSMemory()
	return secs
}

// calSink keeps the kernel's results live.
var calSink atomic.Uint64

// calNode is the kernel's heap object, about the size of a modelled
// object header plus a few fields.
type calNode struct {
	next *calNode
	val  [5]uint64
}

// The kernel's work per goroutine. It allocates about 26 MB, which
// stays in the heap until the kernel ends.
const (
	calLists     = 128     // short-lived linked lists
	calListNodes = 4096    // nodes per list
	calMapKeys   = 1 << 14 // distinct map keys
	calLookups   = 1 << 21 // map lookups, half of them misses
	calALU       = 1 << 23 // xorshift rounds
)

// calKernel does one goroutine's share of the kernel and returns a
// value that depends on all of it.
func calKernel(seed uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64
	// Allocation: linked lists of small objects, each dropped once built.
	for range calLists {
		var head *calNode
		for range calListNodes {
			head = &calNode{next: head, val: [5]uint64{next()}}
		}
		for n := head; n != nil; n = n.next {
			sum += n.val[0]
		}
	}
	// Maps: inserts, then random lookups.
	m := make(map[uint64]uint64)
	for i := range uint64(calMapKeys) {
		m[i*0x9E3779B97F4A7C15] = i
	}
	for range calLookups {
		sum += m[next()%(2*calMapKeys)*0x9E3779B97F4A7C15]
	}
	// Arithmetic.
	for range calALU {
		sum += next()
	}
	return sum
}

// refScale converts host seconds measured alongside kernel times to
// seconds at the reference speed.
func refScale(kernel []float64) float64 { return calRef / median(kernel) }

// calDetail summarises a run's calibrations for the log, with the host
// times the scaled metrics came from.
func calDetail(kernel []float64, scale float64, lr loopResult) string {
	b, _ := json.Marshal(map[string]any{
		"ref_s": calRef, "kernel_s": kernel, "scale": scale,
		"host_ops_per_s": lr.opsPerSec(), "host_op_p50_s": median(lr.lat),
	})
	return string(b)
}
