// Package jvm implements the managed runtime of the emulation
// platform: a Jikes-RVM-style virtual machine with the paper's
// modified heap (dual free lists, DRAM/PCM space split), a generational
// Immix baseline collector, and the seven write-rationing Kingsguard
// configurations evaluated in the paper (KG-N, KG-B, KG-N+LOO,
// KG-B+LOO, KG-W, KG-W−LOO, KG-W−MDO).
//
// The mutator API (Alloc/Read/Write/WriteRef plus root management) is
// what workloads program against; every operation is charged to the
// emulated machine through the owning process, so cache behaviour,
// NUMA routing, and memory-controller write counts are all emergent.
package jvm

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/objmodel"
)

// Kind enumerates the collector configurations of the paper.
type Kind int

const (
	// PCMOnly is the baseline generational Immix collector with every
	// space (including the boot image) bound to the PCM socket.
	PCMOnly Kind = iota
	// KGN is Kingsguard-nursery: nursery in DRAM, everything else in
	// PCM.
	KGN
	// KGB is KG-N with a bigger (3x) nursery.
	KGB
	// KGNLOO is KG-N plus the Large Object Optimization.
	KGNLOO
	// KGBLOO is KG-B plus the Large Object Optimization.
	KGBLOO
	// KGW is Kingsguard-writers: nursery and observer in DRAM, mature,
	// large, and metadata spaces on both sockets, LOO and MDO enabled.
	KGW
	// KGWNoLOO is KG-W without the Large Object Optimization.
	KGWNoLOO
	// KGWNoMDO is KG-W without the MetaData Optimization.
	KGWNoMDO
	// NumKinds is the number of collector configurations.
	NumKinds
)

// String returns the paper's name for the configuration.
func (k Kind) String() string {
	switch k {
	case PCMOnly:
		return "PCM-Only"
	case KGN:
		return "KG-N"
	case KGB:
		return "KG-B"
	case KGNLOO:
		return "KG-N+LOO"
	case KGBLOO:
		return "KG-B+LOO"
	case KGW:
		return "KG-W"
	case KGWNoLOO:
		return "KG-W-LOO"
	case KGWNoMDO:
		return "KG-W-MDO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DRAMSocket and PCMSocket are the NUMA roles on the platform.
const (
	DRAMSocket = 0
	PCMSocket  = 1
)

// kgbNurseryFactor is KG-B's nursery multiplier (4 MB -> 12 MB for
// DaCapo/Pjbb, 32 MB -> 96 MB for GraphChi).
const kgbNurseryFactor = 3

// monitorMutatorTax is the mutator slowdown of KG-W's write-monitoring
// barrier: every store executes the extended barrier (check the
// observed-space range, conditionally raise the write bit), which the
// paper measures as part of KG-W's 10% overhead over KG-N. The tax is
// applied to mutator execution, not to collector work.
const monitorMutatorTax = 0.12

// Plan is a fully resolved collector configuration.
type Plan struct {
	Kind Kind
	// NurseryBytes is the nursery size (already scaled for KG-B).
	NurseryBytes uint64
	// ObserverBytes is 2x the nursery for KG-W variants, else 0.
	ObserverBytes uint64
	// HeapBytes is the mature-heap budget that triggers full-heap
	// collections (the paper: twice the minimum heap size).
	HeapBytes uint64
	// BootBytes is the boot-image size.
	BootBytes uint64
	// ThreadSocket is where application and JVM threads run: socket 0
	// except for PCM-Only rate measurements (socket 1).
	ThreadSocket int
	// AppThreads and GCThreads follow the paper: 4 application
	// threads, 2 garbage collector threads.
	AppThreads int
	GCThreads  int
	// LOO enables the Large Object Optimization.
	LOO bool
	// MDO enables the MetaData Optimization.
	MDO bool
	// Monitor enables KG-W's write monitoring (observer write bits,
	// large-object write tracking).
	Monitor bool
	// UseObserver enables the observer space.
	UseObserver bool
	// Bindings is the space-to-socket map (the paper's Table I).
	Bindings heap.SocketBinding
	// RemsetNode is the NUMA node of the remembered-set buffers.
	RemsetNode int
	// UnmapFreedChunks enables the monolithic-heap ablation: freed
	// chunks are returned to the OS instead of recycled through the
	// free lists (the alternative the paper's Fig 1 design rejects).
	UnmapFreedChunks bool
	// FirstTouchHeap overrides the heap spaces' explicit NUMA
	// bindings with the OS first-touch policy (the placement engine's
	// first-touch policy); boot, metadata, and remset regions keep
	// their Table I bindings.
	FirstTouchHeap bool
}

// PlanConfig are the per-workload knobs of a plan.
type PlanConfig struct {
	// BaseNurseryBytes is the un-scaled nursery: 4 MB for DaCapo and
	// Pjbb, 32 MB for GraphChi (the paper's choices).
	BaseNurseryBytes uint64
	// HeapBytes is the mature-heap budget.
	HeapBytes uint64
	// BootBytes overrides the boot-image size (default 48 MB).
	BootBytes uint64
	// ThreadSocket overrides thread placement (-1 = plan default).
	ThreadSocket int
}

// NewPlan resolves a collector kind against workload knobs, applying
// the paper's Table I space-to-socket mapping.
func NewPlan(kind Kind, cfg PlanConfig) Plan {
	if cfg.BaseNurseryBytes == 0 {
		cfg.BaseNurseryBytes = 4 << 20
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 100 << 20
	}
	if cfg.BootBytes == 0 {
		cfg.BootBytes = 48 << 20
	}
	p := Plan{
		Kind:         kind,
		NurseryBytes: cfg.BaseNurseryBytes,
		HeapBytes:    cfg.HeapBytes,
		BootBytes:    cfg.BootBytes,
		ThreadSocket: DRAMSocket,
		AppThreads:   4,
		GCThreads:    2,
		Bindings:     heap.SocketBinding{},
	}
	if kind == KGB || kind == KGBLOO {
		p.NurseryBytes *= kgbNurseryFactor
	}

	bindAll := func(node int, spaces ...objmodel.SpaceID) {
		for _, s := range spaces {
			p.Bindings[s] = node
		}
	}
	switch kind {
	case PCMOnly:
		// Everything on the PCM socket; threads too, so that observed
		// socket-1 write rates are the PCM write rates (paper §III-B).
		bindAll(PCMSocket,
			objmodel.SpaceBoot, objmodel.SpaceNursery,
			objmodel.SpaceMaturePCM, objmodel.SpaceLargePCM,
			objmodel.SpaceMetaDRAM, objmodel.SpaceMetaPCM)
		p.ThreadSocket = PCMSocket
		p.RemsetNode = PCMSocket
	case KGN, KGB, KGNLOO, KGBLOO:
		// Table I, KG-N column: nursery on S0; mature, large, and
		// metadata on S1 only. Boot image in DRAM (paper §III-B).
		bindAll(DRAMSocket, objmodel.SpaceBoot, objmodel.SpaceNursery)
		bindAll(PCMSocket,
			objmodel.SpaceMaturePCM, objmodel.SpaceLargePCM,
			objmodel.SpaceMetaDRAM, objmodel.SpaceMetaPCM)
		p.RemsetNode = PCMSocket
		p.LOO = kind == KGNLOO || kind == KGBLOO
	case KGW, KGWNoLOO, KGWNoMDO:
		// Table I, KG-W column: nursery and observer on S0; mature,
		// large, and metadata spaces on both sockets.
		bindAll(DRAMSocket,
			objmodel.SpaceBoot, objmodel.SpaceNursery, objmodel.SpaceObserver,
			objmodel.SpaceMatureDRAM, objmodel.SpaceLargeDRAM,
			objmodel.SpaceMetaDRAM)
		bindAll(PCMSocket,
			objmodel.SpaceMaturePCM, objmodel.SpaceLargePCM,
			objmodel.SpaceMetaPCM)
		p.RemsetNode = DRAMSocket
		p.UseObserver = true
		p.Monitor = true
		p.ObserverBytes = 2 * p.NurseryBytes
		p.LOO = kind != KGWNoLOO
		p.MDO = kind != KGWNoMDO
	default:
		panic(fmt.Sprintf("jvm: unknown plan kind %d", kind))
	}
	if cfg.ThreadSocket >= 0 {
		p.ThreadSocket = cfg.ThreadSocket
	}
	return p
}

// HasDRAMSide reports whether the plan keeps mature/large spaces on the
// DRAM socket (KG-W variants).
func (p *Plan) HasDRAMSide() bool { return p.UseObserver }

// LOONurseryLimit is the Large Object Optimization heuristic: large
// objects up to 1/16 of the nursery are allocated in the nursery to
// give them time to die; bigger ones go straight to the PCM large
// space.
func (p *Plan) LOONurseryLimit() uint64 { return p.NurseryBytes / 16 }

// MutatorParallelism is the effective parallel speedup of mutator
// execution: the paper's 4 application threads, degraded by the
// monitoring barrier when the plan observes writes.
func (p *Plan) MutatorParallelism() float64 {
	par := float64(p.AppThreads)
	if p.Monitor {
		par /= 1 + monitorMutatorTax
	}
	return par
}
