package heap

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/objmodel"
)

// ContiguousSpace is a space occupying a fixed virtual range with bump
// allocation: the nursery, the observer, the boot image, and the
// side-metadata regions. The range is mapped and NUMA-bound once, at
// construction — the nursery reservation at boot time from the paper's
// heap layout.
type ContiguousSpace struct {
	id     objmodel.SpaceID
	base   uint64
	limit  uint64
	cursor uint64
}

// NewContiguousSpace maps [base, limit) and binds it to node.
func NewContiguousSpace(id objmodel.SpaceID, base, limit uint64, node int, mem Memory) (*ContiguousSpace, error) {
	if base >= limit {
		return nil, fmt.Errorf("heap: space %v has empty range [%#x,%#x)", id, base, limit)
	}
	if err := mem.MMap(base, limit-base, kernel.NodeFirstTouch); err != nil {
		return nil, fmt.Errorf("heap: space %v: %w", id, err)
	}
	if err := mem.MBind(base, limit-base, node); err != nil {
		return nil, fmt.Errorf("heap: space %v: %w", id, err)
	}
	return &ContiguousSpace{id: id, base: base, limit: limit, cursor: base}, nil
}

// Capacity returns the total bytes of the space.
func (s *ContiguousSpace) Capacity() uint64 { return s.limit - s.base }

// Used returns bytes allocated since the last reset.
func (s *ContiguousSpace) Used() uint64 { return s.cursor - s.base }

// Contains reports whether addr falls inside the space.
func (s *ContiguousSpace) Contains(addr uint64) bool {
	return addr >= s.base && addr < s.limit
}

// Alloc bump-allocates size bytes (8-byte aligned). ok is false when
// the space is full — the caller's GC trigger.
func (s *ContiguousSpace) Alloc(size uint64) (addr uint64, ok bool) {
	size = (size + 7) &^ 7
	if s.cursor+size > s.limit {
		return 0, false
	}
	addr = s.cursor
	s.cursor += size
	return addr, true
}

// Reset reclaims the whole space en masse (after a copying collection).
func (s *ContiguousSpace) Reset() { s.cursor = s.base }

// chunkMeta tracks granule occupancy inside one 4 MB chunk of a
// chunked space.
type chunkMeta struct {
	addr     uint64
	used     []bool
	free     int
	scanHint int
}

// ChunkedSpace is a mark-region space built from free-list chunks:
// the mature spaces use 256-byte Immix lines as their granule, the
// large-object spaces use 4 KB pages. Allocation first-fits into free
// granule runs of partially used chunks, acquiring a new chunk only
// when no run fits; a sweep rebuilds occupancy from the live objects
// and releases fully empty chunks back to the free list (which keeps
// them mapped for recycling — the paper's design).
type ChunkedSpace struct {
	id      objmodel.SpaceID
	fl      *FreeList
	granule uint64
	chunks  []*chunkMeta
	byAddr  map[uint64]*chunkMeta
	used    uint64 // bytes in used granules
}

// NewChunkedSpace returns a chunked space drawing from fl with the
// given granule (LineBytes or PageBytes).
func NewChunkedSpace(id objmodel.SpaceID, fl *FreeList, granule uint64) *ChunkedSpace {
	if ChunkBytes%granule != 0 {
		panic(fmt.Sprintf("heap: granule %d does not divide chunks", granule))
	}
	return &ChunkedSpace{id: id, fl: fl, granule: granule, byAddr: map[uint64]*chunkMeta{}}
}

// Used returns the bytes held by used granules.
func (s *ChunkedSpace) Used() uint64 { return s.used }

// Chunks returns the number of chunks the space currently owns.
func (s *ChunkedSpace) Chunks() int { return len(s.chunks) }

// Contains reports whether addr is inside one of the space's chunks.
func (s *ChunkedSpace) Contains(addr uint64) bool {
	_, ok := s.byAddr[addr&^uint64(ChunkBytes-1)]
	return ok
}

// granulesFor returns the granule count covering size bytes.
func (s *ChunkedSpace) granulesFor(size uint64) int {
	return int((size + s.granule - 1) / s.granule)
}

// Alloc finds a free granule run for size bytes. Objects may not span
// chunks; sizes above ChunkBytes are a configuration error surfaced as
// an explicit failure.
func (s *ChunkedSpace) Alloc(size uint64) (uint64, error) {
	if size == 0 || size > ChunkBytes {
		return 0, fmt.Errorf("heap: %v allocation of %d bytes out of range", s.id, size)
	}
	need := s.granulesFor(size)
	for _, c := range s.chunks {
		if c.free < need {
			continue
		}
		if addr, ok := s.fitIn(c, need); ok {
			return addr, nil
		}
	}
	chunkAddr, err := s.fl.Acquire(s.id)
	if err != nil {
		return 0, err
	}
	c := &chunkMeta{
		addr: chunkAddr,
		used: make([]bool, ChunkBytes/s.granule),
		free: int(ChunkBytes / s.granule),
	}
	s.chunks = append(s.chunks, c)
	s.byAddr[chunkAddr] = c
	addr, ok := s.fitIn(c, need)
	if !ok {
		return 0, fmt.Errorf("heap: fresh chunk cannot fit %d granules", need)
	}
	return addr, nil
}

// fitIn first-fits a run of need granules inside chunk c, starting at
// its scan hint.
func (s *ChunkedSpace) fitIn(c *chunkMeta, need int) (uint64, bool) {
	n := len(c.used)
	for pass := 0; pass < 2; pass++ {
		start := c.scanHint
		end := n
		if pass == 1 {
			start, end = 0, c.scanHint
		}
		run := 0
		for i := start; i < end; i++ {
			if c.used[i] {
				run = 0
				continue
			}
			run++
			if run == need {
				first := i - need + 1
				for j := first; j <= i; j++ {
					c.used[j] = true
				}
				c.free -= need
				c.scanHint = i + 1
				s.used += uint64(need) * s.granule
				return c.addr + uint64(first)*s.granule, true
			}
		}
	}
	return 0, false
}

// ChunkAddrs returns the base addresses of the chunks the space owns,
// in acquisition order (used by the sweep's metadata scan).
func (s *ChunkedSpace) ChunkAddrs() []uint64 {
	addrs := make([]uint64, len(s.chunks))
	for i, c := range s.chunks {
		addrs[i] = c.addr
	}
	return addrs
}

// SweepPrepare clears all occupancy before re-marking live objects.
func (s *ChunkedSpace) SweepPrepare() {
	for _, c := range s.chunks {
		for i := range c.used {
			c.used[i] = false
		}
		c.free = len(c.used)
		c.scanHint = 0
	}
	s.used = 0
}

// SweepMark re-marks the granules covering one live object.
func (s *ChunkedSpace) SweepMark(addr, size uint64) {
	c := s.byAddr[addr&^uint64(ChunkBytes-1)]
	if c == nil {
		panic(fmt.Sprintf("heap: sweep of %#x outside space %v", addr, s.id))
	}
	first := int((addr - c.addr) / s.granule)
	last := int((addr + size - 1 - c.addr) / s.granule)
	for i := first; i <= last; i++ {
		if !c.used[i] {
			c.used[i] = true
			c.free--
			s.used += s.granule
		}
	}
}

// SweepFinish releases fully empty chunks back to the free list and
// reports how many were released.
func (s *ChunkedSpace) SweepFinish() int {
	released := 0
	kept := s.chunks[:0]
	for _, c := range s.chunks {
		if c.free == len(c.used) {
			s.fl.Release(c.addr)
			delete(s.byAddr, c.addr)
			released++
			continue
		}
		kept = append(kept, c)
	}
	s.chunks = kept
	return released
}
