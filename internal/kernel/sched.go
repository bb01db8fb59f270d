package kernel

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// ErrCancelled reports a scheduling session stopped by RunConfig.Cancel
// before every process finished. The run's partial state is meaningless
// — callers abandon the result, they don't read it.
var ErrCancelled = errors.New("kernel: run cancelled")

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunning
	procAtBarrier
	procFinished
)

// Process is a schedulable execution context: an address space, a
// hardware thread binding, and a body function that issues memory
// operations. Processes are cooperative coroutines — the kernel grants
// the single execution token to one process at a time, so the whole
// platform stays deterministic while multiprogrammed instances
// interleave finely enough to contend in the shared L3.
type Process struct {
	Name string
	k    *Kernel
	AS   *AddressSpace
	Th   *machine.Thread
	pid  int

	body       func(*Process)
	state      procState
	sliceStart float64 // thread cycles at quantum start
	quantum    float64 // cycles per timeslice
	grant      chan struct{}
	yielded    chan struct{}
	err        error
	started    bool
	cancelled  bool // set by the scheduler; the next yield unwinds
}

// NewProcess creates a process bound to the given socket. Cores are
// assigned round-robin by PID, mirroring an unpinned OS scheduler
// spreading runnable threads over a socket.
func (k *Kernel) NewProcess(name string, socketID int, body func(*Process)) *Process {
	pid := k.nextPID
	k.nextPID++
	core := pid % k.m.Config().CoresPerSocket
	p := &Process{
		Name:    name,
		k:       k,
		AS:      newAddressSpace(k),
		Th:      k.m.NewThread(name, socketID, core),
		pid:     pid,
		body:    body,
		grant:   make(chan struct{}),
		yielded: make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	return p
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Access performs a virtual-memory access of size bytes at va,
// splitting at page boundaries, faulting pages in on first touch, and
// yielding the CPU when the timeslice is exhausted.
func (p *Process) Access(va uint64, size int, write bool) {
	for size > 0 {
		pa, err := p.AS.translate(va, p.Th)
		if err != nil {
			panic(err)
		}
		inPage := int(PageSize - va%PageSize)
		n := size
		if n > inPage {
			n = inPage
		}
		p.Th.Access(pa, n, write)
		va += uint64(n)
		size -= n
	}
	p.maybeYield()
}

// AccessLines touches n consecutive 64-byte lines starting at the line
// containing va. It is the bulk path (zeroing, copying, scanning) and
// checks the timeslice every page.
func (p *Process) AccessLines(va uint64, n int, write bool) {
	va &^= machine.LineSize - 1
	for n > 0 {
		pa, err := p.AS.translate(va, p.Th)
		if err != nil {
			panic(err)
		}
		linesInPage := int((PageSize - va%PageSize) / machine.LineSize)
		take := n
		if take > linesInPage {
			take = linesInPage
		}
		p.Th.AccessLines(pa, take, write)
		va += uint64(take * machine.LineSize)
		n -= take
		p.maybeYield()
	}
}

// Compute burns n compute units.
func (p *Process) Compute(n int) {
	p.Th.Compute(n)
	p.maybeYield()
}

// MovePages migrates the resident pages of [start, start+length)
// whose frames live on node from to fresh frames on node to — a
// batched move_pages(2)/migrate_pages(2). from == to reallocates each
// matching page onto a different frame of the same node, which is the
// wear-leveling rotation. Old frames are released only after the
// whole batch has allocated, so a rotation cannot recirculate the
// batch's own worn frames — they return to the pool for other users.
//
// The page copies are charged as device-level traffic on both memory
// controllers (MigratePage); the calling process is charged the
// per-page remap cost plus one TLB shootdown per batch, and the total
// charged stall cycles are returned for accounting. Pages on other
// nodes, and non-resident pages, are untouched. A destination node
// out of physical memory stops the batch early and returns the error
// alongside the pages already moved.
func (p *Process) MovePages(start, length uint64, from, to int) (moved int, stallCycles float64, err error) {
	k := p.k
	if from < 0 || from >= k.m.Nodes() || to < 0 || to >= k.m.Nodes() {
		return 0, 0, fmt.Errorf("kernel: move_pages to invalid node %d->%d", from, to)
	}
	if length == 0 || start%PageSize != 0 || length%PageSize != 0 {
		return 0, 0, fmt.Errorf("kernel: move_pages of unaligned range %#x+%#x", start, length)
	}
	end := start + length
	if end > KernelBase {
		return 0, 0, fmt.Errorf("kernel: move_pages into kernel range %#x+%#x", start, length)
	}
	var released []uint64
	for vpn := start / PageSize; vpn < end/PageSize; vpn++ {
		enc := p.AS.pages[vpn]
		if enc == 0 {
			continue
		}
		pa := frameOf(enc)
		if k.homeNodeOf(pa) != from {
			continue
		}
		npa, aerr := k.frames[to].alloc()
		if aerr != nil {
			err = aerr
			break
		}
		k.m.MigratePage(pa, npa)
		released = append(released, pa)
		p.AS.pages[vpn] = pte(npa)
		moved++
	}
	for _, pa := range released {
		k.frames[from].release(pa)
	}
	if moved > 0 {
		stallCycles = k.cfg.MigrationPageCycles*float64(moved) + k.cfg.TLBShootdownCycles
		p.Th.ComputeCycles(stallCycles)
	}
	return moved, stallCycles, err
}

// Barrier blocks the process until every other live process has also
// reached a barrier. The replay-compilation harness uses it to start
// the measured iteration of all multiprogrammed instances at the same
// time, as the paper's modified pcm-memory methodology does.
func (p *Process) Barrier() {
	p.state = procAtBarrier
	p.yieldNow()
}

func (p *Process) maybeYield() {
	if p.quantum > 0 && p.Th.Cycles()-p.sliceStart >= p.quantum {
		p.yieldNow()
	}
}

func (p *Process) yieldNow() {
	p.yielded <- struct{}{}
	<-p.grant
	if p.cancelled {
		// Unwind the body through the panic path: run()'s deferred
		// recover marks the process finished and hands the token back,
		// so a cancelled session leaks no goroutines.
		panic(ErrCancelled)
	}
	p.sliceStart = p.Th.Cycles()
}

// run is the goroutine body wrapping the process function.
func (p *Process) run() {
	<-p.grant
	p.sliceStart = p.Th.Cycles()
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				p.err = err
			} else {
				p.err = fmt.Errorf("process %s: panic: %v", p.Name, r)
			}
		}
		p.state = procFinished
		p.yielded <- struct{}{}
	}()
	p.state = procRunning
	p.body(p)
}

// RunConfig controls a scheduling session.
type RunConfig struct {
	// QuantumCycles is the timeslice length in core cycles. The
	// default (100k cycles ≈ 55 µs at 1.8 GHz) interleaves instances
	// several times per nursery cycle so LLC contention is realistic.
	QuantumCycles float64
	// ThreadsPerProc is the number of logical threads each process
	// represents, for SMT-contention accounting (the paper runs every
	// benchmark with 4 application threads).
	ThreadsPerProc int
	// OnQuantum, if set, runs after every timeslice with the current
	// simulated time (seconds). The write-rate monitor hooks in here.
	OnQuantum func(nowSec float64)
	// OnBarrier, if set, runs when all live processes reach a
	// Barrier, before they are released.
	OnBarrier func()
	// Cancel, when non-nil, stops the session between quanta once it
	// is closed (a context.Done channel fits). Every live process is
	// unwound cooperatively — no goroutine outlives the run — and Run
	// returns ErrCancelled. Cancellation is checked at quantum
	// granularity: a process finishes its current timeslice first.
	Cancel <-chan struct{}
}

// Run schedules the processes until all have finished, picking the
// runnable process with the smallest clock each quantum (keeping
// concurrent instances time-aligned the way real parallel hardware
// would). It returns the first process error encountered, after all
// processes have stopped.
func (k *Kernel) Run(procs []*Process, rc RunConfig) error {
	if rc.QuantumCycles <= 0 {
		rc.QuantumCycles = 100_000
	}
	if rc.ThreadsPerProc <= 0 {
		rc.ThreadsPerProc = 1
	}
	for _, p := range procs {
		p.quantum = rc.QuantumCycles
	}

	live := func() int {
		n := 0
		for _, p := range procs {
			if p.state != procFinished {
				n++
			}
		}
		return n
	}
	updateLoad := func() {
		// All workload processes run on the same socket in the
		// paper's setups; account SMT load per socket.
		loads := map[int]int{}
		for _, p := range procs {
			if p.state != procFinished {
				loads[p.Th.Socket] += rc.ThreadsPerProc
			}
		}
		for s := 0; s < k.m.Nodes(); s++ {
			k.m.SetRunnable(s, loads[s])
		}
	}
	updateLoad()

	cancelled := func() bool {
		if rc.Cancel == nil {
			return false
		}
		select {
		case <-rc.Cancel:
			return true
		default:
			return false
		}
	}

	for live() > 0 {
		if cancelled() {
			// Wind every live process down before returning: started
			// ones are granted one last token and unwind via the
			// yieldNow panic; unstarted ones never ran and are marked
			// finished directly.
			for _, p := range procs {
				if p.state == procFinished {
					continue
				}
				if !p.started {
					p.state = procFinished
					p.err = ErrCancelled
					continue
				}
				p.cancelled = true
				p.grant <- struct{}{}
				<-p.yielded
			}
			updateLoad()
			return ErrCancelled
		}
		// Pick the runnable (or not-yet-started) process with the
		// smallest clock; ties break by PID for determinism.
		var next *Process
		for _, p := range procs {
			switch p.state {
			case procFinished, procAtBarrier:
				continue
			}
			if next == nil || p.Th.Cycles() < next.Th.Cycles() {
				next = p
			}
		}
		if next == nil {
			// Everyone live is at a barrier: release them.
			if rc.OnBarrier != nil {
				rc.OnBarrier()
			}
			for _, p := range procs {
				if p.state == procAtBarrier {
					p.state = procRunning
				}
			}
			continue
		}
		if !next.started {
			next.started = true
			go next.run()
		}
		next.grant <- struct{}{}
		<-next.yielded
		if next.state == procFinished {
			updateLoad()
		}

		now := k.minClockSec(procs)
		k.injectNoise(now)
		if rc.OnQuantum != nil {
			rc.OnQuantum(now)
		}
	}

	for _, p := range procs {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// minClockSec returns the smallest live clock, or the largest final
// clock once everything has finished.
func (k *Kernel) minClockSec(procs []*Process) float64 {
	minLive := -1.0
	maxAll := 0.0
	for _, p := range procs {
		s := p.Th.Seconds()
		if s > maxAll {
			maxAll = s
		}
		if p.state != procFinished && (minLive < 0 || s < minLive) {
			minLive = s
		}
	}
	if minLive >= 0 {
		return minLive
	}
	return maxAll
}

// injectNoise writes the kernel's background traffic (timer ticks,
// bookkeeping) directly to the noise node's memory. Only active in
// emulate-OS mode; the simulation pipeline is noise-free.
func (k *Kernel) injectNoise(nowSec float64) {
	if !k.cfg.EmulateOS || k.cfg.NoisePeriodSec <= 0 {
		return
	}
	if k.noiseNext == 0 {
		k.noiseNext = k.cfg.NoisePeriodSec
	}
	node := k.m.Node(k.cfg.NoiseNode)
	// Kernel structures live near the top of the node.
	base := k.m.Config().NodeBytes - (16 << 20)
	for nowSec >= k.noiseNext {
		off := base + uint64(int(k.noiseNext/k.cfg.NoisePeriodSec)*4096)%(8<<20)
		node.Write(off, uint64(k.cfg.NoiseLines))
		k.noiseNext += k.cfg.NoisePeriodSec
	}
}

// RunSolo runs a single process to completion with default scheduling.
func (k *Kernel) RunSolo(p *Process, rc RunConfig) error {
	return k.Run([]*Process{p}, rc)
}
