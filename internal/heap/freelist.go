package heap

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/objmodel"
)

// ChunkState is one free-list entry, carrying the meta-information the
// paper lists in Fig 1: size (always 4 MB), status, and owner space.
type ChunkState struct {
	Addr  uint64
	Free  bool
	Owner objmodel.SpaceID
}

// FreeList manages one portion of heap virtual memory as 4 MB chunks.
// It maps new chunks on demand (mmap followed by mbind to the list's
// socket, as the paper's modified allocator does) and recycles released
// chunks without unmapping them — the core efficiency argument for the
// two-list design.
type FreeList struct {
	Name   string
	base   uint64
	limit  uint64
	node   int
	mem    Memory
	chunks []ChunkState
	mapped uint64 // bytes of the range mapped so far
	// UnmapOnRelease models the paper's rejected alternative: a
	// monolithic heap must unmap freed chunks so a DRAM space never
	// inherits PCM-mapped pages, paying munmap/mmap/fault costs on
	// every recycle. The dual-free-list design leaves this false.
	UnmapOnRelease bool
	// unmappedVAs are chunk addresses returned to the OS under the
	// ablation, available for remapping.
	unmappedVAs []uint64
	// Acquires/Recycles/Maps count allocation events for the
	// free-list ablation study.
	Acquires uint64
	Recycles uint64
	Maps     uint64
}

// NewFreeList returns a free list over [base, limit) binding new
// chunks to the given NUMA node.
func NewFreeList(name string, base, limit uint64, node int, mem Memory) *FreeList {
	if base%ChunkBytes != 0 || limit%ChunkBytes != 0 || base >= limit {
		panic(fmt.Sprintf("heap: free list %s range [%#x,%#x) not chunk-aligned", name, base, limit))
	}
	return &FreeList{Name: name, base: base, limit: limit, node: node, mem: mem}
}

// Acquire hands a free chunk to the owner space, preferring recycled
// chunks (already mapped, possibly on behalf of a different space) and
// mapping a fresh chunk only when none is free.
func (fl *FreeList) Acquire(owner objmodel.SpaceID) (uint64, error) {
	fl.Acquires++
	for i := range fl.chunks {
		if fl.chunks[i].Free {
			fl.chunks[i].Free = false
			fl.chunks[i].Owner = owner
			fl.Recycles++
			return fl.chunks[i].Addr, nil
		}
	}
	var addr uint64
	if n := len(fl.unmappedVAs); n > 0 {
		addr = fl.unmappedVAs[n-1]
		fl.unmappedVAs = fl.unmappedVAs[:n-1]
		fl.mapped -= ChunkBytes // will be re-added below
	} else {
		addr = fl.base + fl.mapped
		if addr+ChunkBytes > fl.limit {
			return 0, fmt.Errorf("heap: free list %s exhausted (%d MB mapped)", fl.Name, fl.mapped>>20)
		}
	}
	// The paper's allocator: mmap to reserve, then mbind to place the
	// range on the DRAM or PCM socket.
	if err := fl.mem.MMap(addr, ChunkBytes, kernel.NodeFirstTouch); err != nil {
		return 0, err
	}
	if err := fl.mem.MBind(addr, ChunkBytes, fl.node); err != nil {
		return 0, err
	}
	fl.mapped += ChunkBytes
	fl.Maps++
	fl.chunks = append(fl.chunks, ChunkState{Addr: addr, Free: false, Owner: owner})
	return addr, nil
}

// Release marks a chunk free for recycling. In the paper's design the
// chunk stays mapped in the OS page tables and a later Acquire may
// hand it to any space; under the monolithic-heap ablation the chunk
// is unmapped instead and must be remapped (and re-zeroed by the
// kernel) on reuse.
func (fl *FreeList) Release(addr uint64) {
	for i := range fl.chunks {
		if fl.chunks[i].Addr == addr {
			if fl.UnmapOnRelease {
				if err := fl.mem.MUnmap(addr, ChunkBytes); err != nil {
					panic(err)
				}
				fl.chunks = append(fl.chunks[:i], fl.chunks[i+1:]...)
				fl.unmappedVAs = append(fl.unmappedVAs, addr)
				return
			}
			fl.chunks[i].Free = true
			fl.chunks[i].Owner = objmodel.SpaceNone
			return
		}
	}
	panic(fmt.Sprintf("heap: release of unknown chunk %#x on list %s", addr, fl.Name))
}
