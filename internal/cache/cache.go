// Package cache implements the set-associative, write-back,
// write-allocate caches of the emulation platform's processors.
//
// The write-back policy is what makes the platform interesting: a store
// only reaches a memory controller when a dirty line is evicted, so the
// number of PCM writes observed by the paper is the number of dirty
// evictions whose physical page lives on the remote socket. The paper's
// central observation — that a 20 MB L3 absorbs most writes to a 4 MB
// nursery, shrinking KG-N's benefit from 81% (4 MB L3) to 4–8% — falls
// out of this model, as does the super-linear growth of PCM writes when
// multiprogrammed instances interfere in the shared L3.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Victim describes a line displaced by an allocation.
type Victim struct {
	// LineAddr is the 64-byte-aligned address of the displaced line.
	LineAddr uint64
	// Dirty reports whether the line must be written back.
	Dirty bool
	// Valid reports whether a line was displaced at all.
	Valid bool
}

// Config describes one cache.
type Config struct {
	Name     string
	Bytes    int // total capacity
	Ways     int // associativity
	LineSize int // bytes per line; 64 everywhere in this platform
}

// Stats are cumulative access statistics for one cache.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Evictions   uint64
	DirtyEvicts uint64
}

// Cache is a single set-associative write-back cache level. Not safe
// for concurrent use.
//
// Each way is one 32-bit word, (tag+1)<<1 | dirty, where the tag is the
// line address with the set index taken out; 0 means invalid. A set's
// words are kept in exact MRU→LRU order, and its valid ways always form
// a prefix. A hit on way 0 only ORs in the dirty bit; any other hit,
// and every miss, shifts the set's words down in place and installs
// the line at way 0. A 20-way L3 set is 80 bytes, so a set scan stays
// within two host cache lines.
//
// A tag must fit the word's 31 bits. Access and Contains panic on a
// wider one rather than alias it; the platform's largest physical
// address (2 × 66 GB) gives at most a 26-bit tag in any geometry it
// builds.
type Cache struct {
	cfg   Config
	sets  uint64
	ways  int
	shift uint // log2(LineSize)
	// pow2 reports a power-of-two set count, where the set is
	// line&mask and the tag line>>setBits. Other counts, such as the
	// 12288 sets of a 15 MB L3, take % and /.
	pow2    bool
	setBits uint
	mask    uint64
	words   []uint32
	// buf points at words, for Release; both are nil once released.
	buf   *[]uint32
	stats Stats
}

// wordPools hold the way arrays of released caches (see Release) for
// later ones, one pool per bits.Len of the array's length, so that an
// L1's array does not stand in for an L3's.
var wordPools [64]sync.Pool

// newWords returns a zeroed way array of n words, recycled from a
// released cache when one of a fitting size is pooled.
func newWords(n int) *[]uint32 {
	pool := &wordPools[bits.Len(uint(n))]
	if buf, _ := pool.Get().(*[]uint32); buf != nil {
		if cap(*buf) >= n {
			*buf = (*buf)[:n]
			clear(*buf)
			return buf
		}
		pool.Put(buf)
	}
	words := make([]uint32, n)
	return &words
}

// maxTag is the widest tag a way's word can hold: (maxTag+1)<<1 | 1
// is the largest uint32.
const maxTag = 1<<31 - 2

// New returns a cache for the configuration. It panics on a geometry
// that cannot form whole sets, since that is a programming error in the
// platform description, not a runtime condition.
func New(cfg Config) *Cache {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.Ways <= 0 || cfg.Bytes <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	linesTotal := cfg.Bytes / cfg.LineSize
	if linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, linesTotal, cfg.Ways))
	}
	sets := uint64(linesTotal / cfg.Ways)
	if sets == 0 {
		panic(fmt.Sprintf("cache %s: zero sets", cfg.Name))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	buf := newWords(int(sets) * cfg.Ways)
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		shift:   shift,
		pow2:    sets&(sets-1) == 0,
		setBits: uint(bits.TrailingZeros64(sets)),
		mask:    sets - 1,
		words:   *buf,
		buf:     buf,
	}
}

// Release hands the cache's way array to a later New. The cache must
// not be used afterwards: Access, Contains and Flush panic.
func (c *Cache) Release() {
	if c.buf == nil {
		return
	}
	wordPools[bits.Len(uint(len(c.words)))].Put(c.buf)
	c.words, c.buf = nil, nil
}

// Stats returns the cumulative statistics.
func (c *Cache) Stats() Stats { return c.stats }

// locate splits the line holding addr into its set and tag.
func (c *Cache) locate(addr uint64) (set, tag uint64) {
	line := addr >> c.shift
	if c.pow2 {
		return line & c.mask, line >> c.setBits
	}
	return line % c.sets, line / c.sets
}

// encode returns the way word, dirty bit clear, for a line's tag. It
// panics on a tag too wide for the word, which would otherwise alias.
func (c *Cache) encode(addr, tag uint64) uint32 {
	if tag > maxTag {
		c.tagOverflow(addr)
	}
	return uint32(tag+1) << 1
}

// tagOverflow is kept out of line so that encode inlines into Access.
//
//go:noinline
func (c *Cache) tagOverflow(addr uint64) {
	panic(fmt.Sprintf("cache %s: address %#x has a tag wider than 31 bits", c.cfg.Name, addr))
}

// lineAddrOf rebuilds the line address of a valid way word in set.
func (c *Cache) lineAddrOf(set uint64, word uint32) uint64 {
	tag := uint64(word>>1) - 1
	if c.pow2 {
		return (tag<<c.setBits | set) << c.shift
	}
	return (tag*c.sets + set) << c.shift
}

// Access performs one read or write of the line containing addr.
// On a miss the line is allocated (write-allocate) and the displaced
// line, if any, is returned so the caller can cascade the writeback.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim) {
	set, tag := c.locate(addr)
	enc := c.encode(addr, tag)
	var dirty uint32
	if write {
		dirty = 1
	}
	c.stats.Accesses++
	ws := c.words[set*uint64(c.ways):][:c.ways]
	if ws[0]&^1 == enc {
		ws[0] |= dirty
		c.stats.Hits++
		return true, Victim{}
	}
	// Scan and shift in one pass: each way moves down a slot until the
	// hit way, or on a miss the LRU way, has been read.
	prev := ws[0]
	for w := 1; w < len(ws); w++ {
		cur := ws[w]
		ws[w] = prev
		if cur&^1 == enc {
			ws[0] = cur | dirty
			c.stats.Hits++
			return true, Victim{}
		}
		prev = cur
	}
	ws[0] = enc | dirty
	if prev != 0 {
		victim = Victim{LineAddr: c.lineAddrOf(set, prev), Dirty: prev&1 != 0, Valid: true}
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
		}
	}
	return false, victim
}

// Contains reports whether the line holding addr is currently resident.
// It does not perturb recency and is intended for tests and assertions.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	enc := c.encode(addr, tag)
	for _, wd := range c.words[set*uint64(c.ways):][:c.ways] {
		if wd&^1 == enc {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache and returns the dirty lines so the
// caller can account for their writebacks: set by set, each set MRU
// first. Callers that feed them to another cache depend on the order.
func (c *Cache) Flush() []uint64 {
	if c.buf == nil {
		panic(fmt.Sprintf("cache %s: flush after release", c.cfg.Name))
	}
	var dirtyLines []uint64
	for i, wd := range c.words {
		if wd&1 != 0 {
			dirtyLines = append(dirtyLines, c.lineAddrOf(uint64(i/c.ways), wd))
		}
	}
	clear(c.words)
	return dirtyLines
}
