// Package machine models the commodity two-socket NUMA server the
// paper uses as its emulation platform (Fig 2): two Intel E5-2650L
// processors, each with 8 cores (2 hyperthreads each), private L1/L2
// caches, a 20 MB shared L3, and a QPI link between the sockets. Memory
// on socket 0 plays DRAM; memory on socket 1 plays PCM.
//
// The machine executes memory accesses issued by software threads.
// Every access runs through the issuing core's L1→L2→L3; misses and
// dirty-line writebacks are routed by physical address to the owning
// node's memory device, whose controller counts 64-byte line traffic —
// the quantity pcm-memory reports on the real platform. Per-thread
// cycle clocks advance under a fixed cost model, giving the simulated
// time base that turns write counts into write rates (MB/s).
//
// Everything is deterministic and single-goroutine-at-a-time; there is
// no wall-clock or global randomness anywhere in the model.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/memdev"
)

// LineSize is the coherence and memory-transfer granularity in bytes.
const LineSize = 64

// Costs is the access cost model in core cycles per 64-byte line.
type Costs struct {
	Compute   float64 // one unit of pure computation
	L1Hit     float64
	L2Hit     float64
	L3Hit     float64
	MemLocal  float64 // L3 miss served by the local node
	MemRemote float64 // L3 miss served by the remote node over QPI
}

// DefaultCosts approximate the paper's Xeon E5-2650L at 1.8 GHz. The
// values are effective (throughput) costs, not raw load-to-use
// latencies: out-of-order cores overlap misses, so the local/remote
// gap seen by a streaming thread is far smaller than the raw QPI
// latency difference.
func DefaultCosts() Costs {
	return Costs{
		Compute:   1,
		L1Hit:     4,
		L2Hit:     12,
		L3Hit:     38,
		MemLocal:  180,
		MemRemote: 210,
	}
}

// Config describes the platform.
type Config struct {
	Sockets          int
	CoresPerSocket   int
	SMT              bool    // hyperthreading available (16 logical cores/socket pair)
	FreqHz           float64 // core frequency
	NodeBytes        uint64  // memory capacity per socket
	L1               cache.Config
	L2               cache.Config
	L3               cache.Config
	Costs            Costs
	TrackWear        bool // enable per-page wear histograms on the nodes
	TrackWindow      bool // enable per-page write window counters
	TrackWindowReads bool // additionally count reads in the window
}

// DefaultConfig is the paper's platform: 2 sockets x 8 cores x 2 HT,
// 132 GB evenly split, 32 KB L1D, 256 KB L2, 20 MB shared L3, 1.8 GHz.
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 8,
		SMT:            true,
		FreqHz:         1.8e9,
		NodeBytes:      66 << 30,
		L1:             cache.Config{Name: "L1D", Bytes: 32 << 10, Ways: 8},
		L2:             cache.Config{Name: "L2", Bytes: 256 << 10, Ways: 8},
		L3:             cache.Config{Name: "L3", Bytes: 20 << 20, Ways: 20},
		Costs:          DefaultCosts(),
	}
}

type core struct {
	l1 *cache.Cache
	l2 *cache.Cache
}

type socket struct {
	l3    *cache.Cache
	cores []core
}

// QPIStats counts traffic crossing the inter-socket link.
type QPIStats struct {
	ReadLines  uint64
	WriteLines uint64
}

// Machine is one instance of the platform. Not safe for concurrent
// use: the kernel's cooperative scheduler guarantees a single runner.
type Machine struct {
	cfg     Config
	nodes   []*memdev.Device
	sockets []socket
	qpi     QPIStats
	// smtLoad is the number of software threads currently runnable on
	// each socket; when it exceeds the physical core count and SMT is
	// enabled, per-thread costs inflate by smtPenalty.
	smtLoad []int
}

// smtPenalty is the throughput cost multiplier when two hyperthreads
// share a physical core.
const smtPenalty = 1.35

// New builds a machine. It panics on an impossible topology, which is a
// configuration bug rather than a runtime error.
func New(cfg Config) *Machine {
	if cfg.Sockets <= 0 || cfg.CoresPerSocket <= 0 {
		panic(fmt.Sprintf("machine: bad topology %+v", cfg))
	}
	if cfg.FreqHz <= 0 {
		panic("machine: frequency must be positive")
	}
	m := &Machine{cfg: cfg, smtLoad: make([]int, cfg.Sockets)}
	for s := 0; s < cfg.Sockets; s++ {
		kind := memdev.DRAM
		if s > 0 {
			kind = memdev.PCM
		}
		m.nodes = append(m.nodes, memdev.New(memdev.Config{
			Kind:             kind,
			Bytes:            cfg.NodeBytes,
			TrackWear:        cfg.TrackWear,
			TrackWindow:      cfg.TrackWindow,
			TrackWindowReads: cfg.TrackWindowReads,
		}))
		sk := socket{l3: cache.New(cfg.L3)}
		for c := 0; c < cfg.CoresPerSocket; c++ {
			sk.cores = append(sk.cores, core{
				l1: cache.New(cfg.L1),
				l2: cache.New(cfg.L2),
			})
		}
		m.sockets = append(m.sockets, sk)
	}
	return m
}

// Release hands every cache's way array to later machines (see
// cache.Cache.Release). The machine must not run accesses afterwards.
func (m *Machine) Release() {
	for s := range m.sockets {
		sk := &m.sockets[s]
		sk.l3.Release()
		for _, co := range sk.cores {
			co.l1.Release()
			co.l2.Release()
		}
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Node returns the memory device of the given NUMA node.
func (m *Machine) Node(i int) *memdev.Device { return m.nodes[i] }

// Nodes reports the number of NUMA nodes.
func (m *Machine) Nodes() int { return len(m.nodes) }

// QPI returns the cumulative inter-socket traffic counters.
func (m *Machine) QPI() QPIStats { return m.qpi }

// L3 exposes a socket's shared cache, for tests and diagnostics.
func (m *Machine) L3(socket int) *cache.Cache { return m.sockets[socket].l3 }

// homeNode maps a physical address to its owning NUMA node.
func (m *Machine) homeNode(pa uint64) int {
	n := int(pa / m.cfg.NodeBytes)
	if n >= len(m.nodes) {
		n = len(m.nodes) - 1
	}
	return n
}

// memWrite routes a line writeback to its home node, counting QPI
// traffic when the writing socket is not the home socket.
func (m *Machine) memWrite(fromSocket int, pa uint64) {
	node := m.homeNode(pa)
	m.nodes[node].Write(pa%m.cfg.NodeBytes, 1)
	if node != fromSocket {
		m.qpi.WriteLines++
	}
}

// MigratePage copies one 4 KB page between physical frames at device
// level — the kernel's non-temporal page-migration copy, which streams
// past the caches. Both memory controllers count the traffic, and a
// cross-socket copy crosses the interconnect once (counted on the QPI
// read side, as the data leaves the source socket). Lines of the old
// frame still resident in a cache are not invalidated; a later
// writeback of such a line lands on the frame's next owner, which is
// the same aliasing a real migration without cache flushing exhibits.
func (m *Machine) MigratePage(srcPA, dstPA uint64) {
	const lines = 4096 / LineSize
	sn, dn := m.homeNode(srcPA), m.homeNode(dstPA)
	m.nodes[sn].Read(srcPA%m.cfg.NodeBytes, lines)
	m.nodes[dn].Write(dstPA%m.cfg.NodeBytes, lines)
	if sn != dn {
		m.qpi.ReadLines += lines
	}
	// Neither the released frame's stale heat nor the copy's own
	// writes should read as mutator heat next quantum.
	m.nodes[sn].ClearWindowPage(srcPA % m.cfg.NodeBytes)
	m.nodes[dn].ClearWindowPage(dstPA % m.cfg.NodeBytes)
}

// memRead routes a line fill from its home node.
func (m *Machine) memRead(fromSocket int, pa uint64) {
	node := m.homeNode(pa)
	m.nodes[node].Read(pa%m.cfg.NodeBytes, 1)
	if node != fromSocket {
		m.qpi.ReadLines++
	}
}

// ResetCounters zeroes node and QPI counters (cache contents and cache
// statistics are preserved: the replay harness resets counters between
// the warmup and measured iterations without disturbing cache state).
func (m *Machine) ResetCounters() {
	for _, n := range m.nodes {
		n.ResetCounters()
	}
	m.qpi = QPIStats{}
}

// Thread is a software execution context bound to a socket and core.
// Its clock advances with every access; Seconds() gives simulated time.
type Thread struct {
	m *Machine
	// Name identifies the thread in diagnostics.
	Name string
	// Socket and Core are the binding; the paper binds all application
	// and JVM threads to socket 0 (or socket 1 for PCM-Only rate
	// measurements) and never pins to specific cores, so core choice
	// is made by the caller (the kernel scheduler).
	Socket int
	Core   int
	// clock is the thread's cycle count.
	clock float64
	// Parallelism models intra-process thread-level parallelism: the
	// paper runs each application with 4 application threads (2 GC
	// threads during collection). The platform executes the process
	// as one deterministic op stream whose clock advances at 1/P of
	// the single-thread cost. 0 or 1 means sequential.
	Parallelism float64
}

// NewThread creates a thread bound to the given socket and core.
func (m *Machine) NewThread(name string, socketID, coreID int) *Thread {
	if socketID < 0 || socketID >= len(m.sockets) {
		panic(fmt.Sprintf("machine: no socket %d", socketID))
	}
	if coreID < 0 || coreID >= len(m.sockets[socketID].cores) {
		panic(fmt.Sprintf("machine: no core %d on socket %d", coreID, socketID))
	}
	return &Thread{m: m, Name: name, Socket: socketID, Core: coreID, Parallelism: 1}
}

// SetRunnable adjusts the socket's runnable-thread count used for the
// SMT contention penalty. The kernel scheduler calls this as processes
// start and finish.
func (m *Machine) SetRunnable(socketID, n int) {
	m.smtLoad[socketID] = n
}

// costScale returns the cost multiplier for a thread: SMT contention
// divided by intra-process parallelism.
func (t *Thread) costScale() float64 {
	scale := 1.0
	load := t.m.smtLoad[t.Socket]
	cores := t.m.cfg.CoresPerSocket
	if load > cores {
		if t.m.cfg.SMT {
			scale *= smtPenalty
		} else {
			// Without SMT, oversubscription timeslices: throughput
			// halves as two threads share one core.
			scale *= float64(load) / float64(cores)
		}
	}
	p := t.Parallelism
	if p < 1 {
		p = 1
	}
	return scale / p
}

// advance adds cost cycles (scaled) to the thread clock.
func (t *Thread) advance(cost float64) {
	t.clock += cost * t.costScale()
}

// Cycles returns the thread's cycle clock.
func (t *Thread) Cycles() float64 { return t.clock }

// Seconds returns the thread's clock in simulated seconds.
func (t *Thread) Seconds() float64 { return t.clock / t.m.cfg.FreqHz }

// Compute advances the clock by n compute units without touching
// memory. Applications use it to model the non-memory part of their
// instruction mix, which sets the compute-to-write ratio that the
// paper's write rates (MB/s) depend on.
func (t *Thread) Compute(n int) {
	t.advance(float64(n) * t.m.cfg.Costs.Compute)
}

// ComputeCycles advances the clock by a raw cycle cost (still subject
// to the contention/parallelism scale). The kernel uses it for trap and
// fault overheads.
func (t *Thread) ComputeCycles(c float64) {
	t.advance(c)
}

// writebackL2 installs a dirty line evicted from L1 into L2, cascading
// any L2 victim toward L3. Writeback installs do not read memory.
func (t *Thread) writebackL2(co *core, sk *socket, addr uint64) {
	_, v := co.l2.Access(addr, true)
	if v.Valid && v.Dirty {
		t.writebackL3(sk, v.LineAddr)
	}
}

// writebackL3 installs a dirty line evicted from L2 into the socket's
// shared L3; a dirty L3 victim finally reaches a memory controller.
func (t *Thread) writebackL3(sk *socket, addr uint64) {
	_, v := sk.l3.Access(addr, true)
	if v.Valid && v.Dirty {
		t.m.memWrite(t.Socket, v.LineAddr)
	}
}

// accessLine performs one line access through the thread's cache
// hierarchy, cascading writebacks toward memory. This is the hot path
// of the entire platform.
func (t *Thread) accessLine(pa uint64, write bool) {
	m := t.m
	costs := &m.cfg.Costs
	sk := &m.sockets[t.Socket]
	co := &sk.cores[t.Core]

	hit, v1 := co.l1.Access(pa, write)
	if hit {
		t.advance(costs.L1Hit)
		return
	}
	if v1.Valid && v1.Dirty {
		t.writebackL2(co, sk, v1.LineAddr)
	}

	hit2, v2 := co.l2.Access(pa, false)
	if v2.Valid && v2.Dirty {
		t.writebackL3(sk, v2.LineAddr)
	}
	if hit2 {
		t.advance(costs.L2Hit)
		return
	}

	hit3, v3 := sk.l3.Access(pa, false)
	if v3.Valid && v3.Dirty {
		m.memWrite(t.Socket, v3.LineAddr)
	}
	if hit3 {
		t.advance(costs.L3Hit)
		return
	}

	// L3 miss: fill from the home node's memory.
	m.memRead(t.Socket, pa)
	if m.homeNode(pa) == t.Socket {
		t.advance(costs.MemLocal)
	} else {
		t.advance(costs.MemRemote)
	}
}

// Access performs a read or write of size bytes at physical address pa,
// touching every 64-byte line the range covers.
func (t *Thread) Access(pa uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	first := pa &^ uint64(LineSize-1)
	last := (pa + uint64(size) - 1) &^ uint64(LineSize-1)
	for line := first; ; line += LineSize {
		t.accessLine(line, write)
		if line == last {
			break
		}
	}
}

// AccessLines touches n consecutive lines starting at the line holding
// pa. It is the bulk path used for zeroing, copying, and scanning.
func (t *Thread) AccessLines(pa uint64, n int, write bool) {
	line := pa &^ uint64(LineSize-1)
	for i := 0; i < n; i++ {
		t.accessLine(line, write)
		line += LineSize
	}
}

// DrainCaches flushes every cache on every socket, sending dirty lines
// to their home nodes. The writer socket for QPI accounting is the
// cache's own socket. Used by tests and end-of-run accounting; the
// replay harness does not need it because it measures deltas over a
// long iteration.
func (m *Machine) DrainCaches() {
	for s := range m.sockets {
		sk := &m.sockets[s]
		for c := range sk.cores {
			for _, addr := range sk.cores[c].l1.Flush() {
				_, v := sk.cores[c].l2.Access(addr, true)
				if v.Valid && v.Dirty {
					_, v3 := sk.l3.Access(v.LineAddr, true)
					if v3.Valid && v3.Dirty {
						m.memWrite(s, v3.LineAddr)
					}
				}
			}
			for _, addr := range sk.cores[c].l2.Flush() {
				_, v3 := sk.l3.Access(addr, true)
				if v3.Valid && v3.Dirty {
					m.memWrite(s, v3.LineAddr)
				}
			}
		}
		for _, addr := range sk.l3.Flush() {
			m.memWrite(s, addr)
		}
	}
}
