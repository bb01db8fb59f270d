// Package heap implements the paper's hybrid-memory heap organization
// (Fig 1): a 32-bit virtual address space whose managed heap is split
// into a PCM-backed portion and a DRAM-backed portion, each managed by
// its own free list of 4 MB chunks. Chunks, once mapped to physical
// memory on their portion's socket, are never unmapped — they are
// recycled between spaces through the free list, which is exactly the
// flexibility the paper credits the two-free-list design for.
//
// Spaces follow the Jikes RVM / MMTk organization the paper modifies:
// a contiguous nursery (and, for KG-W, an observer) at one end of
// virtual memory so the fast boundary write barrier works; chunked
// mark-region mature spaces; page-granular large-object spaces; side
// metadata regions; and a boot space.
package heap

import (
	"fmt"

	"repro/internal/objmodel"
)

// Memory is the OS surface the heap needs: reserving virtual memory,
// binding it to a NUMA node, and (for the monolithic-free-list
// ablation) unmapping it. *kernel.AddressSpace satisfies it.
type Memory interface {
	MMap(start, length uint64, node int) error
	MBind(start, length uint64, node int) error
	MUnmap(start, length uint64) error
}

const (
	// ChunkBytes is the chunk size, the minimum unit of virtual
	// memory handed to a space (Jikes RVM default, per the paper).
	ChunkBytes = 4 << 20
	// LineBytes is the Immix line granularity in the mature spaces.
	LineBytes = 256
	// BlockBytes is the Immix block granularity (for accounting).
	BlockBytes = 32 << 10
	// PageBytes is the allocation granularity of large-object spaces.
	PageBytes = 4096
	// LargeThreshold is the size at or above which objects follow the
	// large-object policy (Jikes RVM: 8 KB).
	LargeThreshold = 8 << 10
	// MarkGranule is the number of heap bytes covered by one byte of
	// side mark metadata.
	MarkGranule = 256
)

// Virtual-address-space landmarks (32-bit layout, paper §III-A: the
// OS owns the top 1 GB, system libraries use low memory, the middle
// 2 GB hold the managed heap).
const (
	// BootBase is the boot-image region (below the heap).
	BootBase = 0x00400000
	// MetaBase is where the side-metadata regions live.
	MetaBase = 0x0C000000
	// HeapBase is PCM_START, the bottom of the managed heap.
	HeapBase = 0x10000000
	// DefaultPCMEnd splits the heap: [HeapBase, PCMEnd) is the
	// PCM-backed portion managed by FreeList-Lo.
	DefaultPCMEnd = 0x60000000
	// DefaultDRAMEnd is the top of the DRAM-backed portion managed by
	// FreeList-Hi; the nursery sits at this end of virtual memory.
	DefaultDRAMEnd = 0x90000000
)

// Layout fixes the virtual-memory geometry for one process's heap.
type Layout struct {
	PCMStart uint64 // PCM_START in the paper's Fig 1
	PCMEnd   uint64 // PCM_END: boundary between the two portions
	DRAMEnd  uint64 // DRAM_END: top of the heap

	BootBytes     uint64
	NurseryBytes  uint64
	ObserverBytes uint64 // 0 when the plan has no observer space

	// Derived at validation time.
	NurseryStart  uint64 // [NurseryStart, DRAMEnd)
	ObserverStart uint64 // [ObserverStart, NurseryStart)
	ChunkedHiEnd  uint64 // top of FreeList-Hi's chunked range

	// Metadata regions: meta-lo covers the PCM portion, meta-hi the
	// DRAM portion, one byte per MarkGranule heap bytes.
	MetaLoStart, MetaLoEnd uint64
	MetaHiStart, MetaHiEnd uint64
	// RemsetStart is the sequential-store-buffer region.
	RemsetStart, RemsetEnd uint64
	// MetaExtra is the MetaData Optimization region: a DRAM-bound
	// shadow of meta-lo so that marking PCM objects writes DRAM.
	MetaExtraStart, MetaExtraEnd uint64
}

// NewLayout computes a layout for the given nursery/observer sizes,
// using the default 32-bit landmarks.
func NewLayout(nurseryBytes, observerBytes uint64) (Layout, error) {
	l := Layout{
		PCMStart:      HeapBase,
		PCMEnd:        DefaultPCMEnd,
		DRAMEnd:       DefaultDRAMEnd,
		BootBytes:     48 << 20,
		NurseryBytes:  nurseryBytes,
		ObserverBytes: observerBytes,
	}
	if err := l.finalize(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// finalize validates the geometry and computes the derived fields.
func (l *Layout) finalize() error {
	if l.PCMStart%ChunkBytes != 0 || l.PCMEnd%ChunkBytes != 0 || l.DRAMEnd%ChunkBytes != 0 {
		return fmt.Errorf("heap: portion boundaries must be chunk-aligned")
	}
	if l.PCMStart >= l.PCMEnd || l.PCMEnd >= l.DRAMEnd {
		return fmt.Errorf("heap: portions out of order: %#x %#x %#x", l.PCMStart, l.PCMEnd, l.DRAMEnd)
	}
	if l.NurseryBytes == 0 || l.NurseryBytes%PageBytes != 0 || l.ObserverBytes%PageBytes != 0 {
		return fmt.Errorf("heap: nursery/observer sizes must be page-aligned and nonzero nursery")
	}
	contiguous := l.NurseryBytes + l.ObserverBytes
	// Round the contiguous reservation up to a chunk boundary so the
	// chunked range below it stays chunk-aligned.
	resv := (contiguous + ChunkBytes - 1) / ChunkBytes * ChunkBytes
	if resv >= l.DRAMEnd-l.PCMEnd {
		return fmt.Errorf("heap: nursery+observer (%d) exceed the DRAM portion", contiguous)
	}
	l.NurseryStart = l.DRAMEnd - l.NurseryBytes
	l.ObserverStart = l.NurseryStart - l.ObserverBytes
	l.ChunkedHiEnd = l.DRAMEnd - resv

	loMeta := (l.PCMEnd - l.PCMStart) / MarkGranule
	hiMeta := (l.DRAMEnd - l.PCMEnd) / MarkGranule
	l.MetaLoStart = MetaBase
	l.MetaLoEnd = pageAlign(l.MetaLoStart + loMeta)
	l.MetaHiStart = l.MetaLoEnd
	l.MetaHiEnd = pageAlign(l.MetaHiStart + hiMeta)
	l.RemsetStart = l.MetaHiEnd
	l.RemsetEnd = l.RemsetStart + (8 << 20)
	l.MetaExtraStart = l.RemsetEnd
	l.MetaExtraEnd = pageAlign(l.MetaExtraStart + loMeta)
	if l.MetaExtraEnd > HeapBase {
		return fmt.Errorf("heap: metadata regions overrun the heap base")
	}
	return nil
}

// MarkByteAddrMDO returns the DRAM-bound shadow metadata address for a
// PCM-portion heap address, used when the MetaData Optimization is on.
func (l *Layout) MarkByteAddrMDO(addr uint64) uint64 {
	return l.MetaExtraStart + (addr-l.PCMStart)/MarkGranule
}

func pageAlign(v uint64) uint64 {
	return (v + PageBytes - 1) / PageBytes * PageBytes
}

// InNursery reports whether addr is in the nursery — the fast boundary
// test of the generational write barrier.
func (l *Layout) InNursery(addr uint64) bool {
	return addr >= l.NurseryStart && addr < l.DRAMEnd
}

// InYoung reports whether addr is in the nursery or observer (the
// "young" side of the boundary barrier under KG-W).
func (l *Layout) InYoung(addr uint64) bool {
	return addr >= l.ObserverStart && addr < l.DRAMEnd
}

// MarkByteAddr returns the side-metadata address holding the mark byte
// for a heap address. Addresses in the PCM portion map into the
// meta-lo region, DRAM-portion addresses into meta-hi; each region's
// NUMA binding is a plan decision (the MetaData Optimization binds
// meta-lo to DRAM).
func (l *Layout) MarkByteAddr(addr uint64) uint64 {
	if addr < l.PCMEnd {
		return l.MetaLoStart + (addr-l.PCMStart)/MarkGranule
	}
	return l.MetaHiStart + (addr-l.PCMEnd)/MarkGranule
}

// PCMPortion reports whether a heap address lies in the PCM-backed
// (FreeList-Lo) portion of virtual memory.
func (l *Layout) PCMPortion(addr uint64) bool {
	return addr >= l.PCMStart && addr < l.PCMEnd
}

// SocketBinding is the per-space NUMA placement of a plan: the paper's
// Table I expressed as a map from space to socket.
type SocketBinding map[objmodel.SpaceID]int
