// Package kernel is the minimal operating-system layer of the
// emulation platform: per-process 32-bit address spaces with 4 KB page
// tables, mmap/mbind with NUMA placement policies (the calls the
// paper's modified JVM uses to pin heap chunks to the DRAM or PCM
// socket), first-touch physical frame allocation with kernel page
// zeroing, and a deterministic cooperative scheduler that interleaves
// multiprogrammed processes on socket 0's cores.
//
// Two behaviours of this layer matter for the paper's methodology:
//
//   - Page zeroing. Linux zeroes a page in the faulting thread's
//     context on first touch. These writes land on whatever node the
//     page is bound to and are visible to the memory-controller
//     counters — part of the "system-level effects" the paper isolates
//     with its reference setup. The Sniper-style simulation pipeline
//     has no OS and therefore misses them; this asymmetry is one
//     reason emulation and simulation report slightly different
//     reductions (Table II).
//
//   - Scheduling. The paper binds all application and JVM threads to
//     one socket with the default OS scheduler, without core pinning.
//     The scheduler here picks the runnable process with the smallest
//     clock (keeping multiprogrammed instances time-aligned, as truly
//     concurrent execution would) and round-robins core assignment.
package kernel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/machine"
)

// PageSize is the virtual-memory page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VASize is the size of a 32-bit process address space.
const VASize = uint64(1) << 32

// KernelBase is the start of the kernel-owned top 1 GB of the 32-bit
// address space (the paper: "the Linux OS owns the upper 1 GB").
const KernelBase = 0xC0000000

// PolicyNode values for MBind.
const (
	// NodeFirstTouch places a page on the node local to the first
	// thread that touches it (the OS default).
	NodeFirstTouch = -1
)

// Config controls the OS model.
type Config struct {
	// EmulateOS enables the behaviours a real OS contributes on the
	// emulation platform: page-fault cost, kernel page zeroing, and
	// background system noise. The simulation pipeline turns it off.
	EmulateOS bool
	// PageFaultCycles is the CPU cost of taking a minor fault.
	PageFaultCycles float64
	// NoisePeriodSec is the simulated-time period of background kernel
	// activity (timer ticks, bookkeeping) while EmulateOS is on.
	NoisePeriodSec float64
	// NoiseLines is the number of line writes per noise tick, landing
	// on the node given by NoiseNode.
	NoiseLines int
	// NoiseNode is the node kernel noise writes to (0 = the socket the
	// workload runs on, matching the paper's observation that system
	// activity shows up on the local socket).
	NoiseNode int
	// MigrationPageCycles is the per-page CPU cost of MovePages: the
	// unmap/remap bookkeeping around the copy (the copy traffic itself
	// is charged to the memory devices).
	MigrationPageCycles float64
	// TLBShootdownCycles is the cost of the inter-processor TLB
	// shootdown a MovePages batch triggers, charged once per batch.
	TLBShootdownCycles float64
}

// DefaultConfig returns the OS model used by the emulator pipeline.
func DefaultConfig() Config {
	return Config{
		EmulateOS:           true,
		PageFaultCycles:     2500,
		NoisePeriodSec:      0.001, // 1 kHz tick
		NoiseLines:          24,
		NoiseNode:           0,
		MigrationPageCycles: 1200,
		TLBShootdownCycles:  4000,
	}
}

// frameAllocator hands out physical frames from one NUMA node.
type frameAllocator struct {
	base  uint64 // first PA of the node
	next  uint64 // bump offset
	limit uint64
	free  []uint64
}

func (f *frameAllocator) alloc() (uint64, error) {
	if n := len(f.free); n > 0 {
		pa := f.free[n-1]
		f.free = f.free[:n-1]
		return pa, nil
	}
	if f.next+PageSize > f.limit {
		return 0, fmt.Errorf("kernel: node out of physical memory (%d used)", f.next)
	}
	pa := f.base + f.next
	f.next += PageSize
	return pa, nil
}

func (f *frameAllocator) release(pa uint64) {
	f.free = append(f.free, pa)
}

// Kernel is the OS instance managing one machine.
type Kernel struct {
	cfg       Config
	m         *machine.Machine
	frames    []frameAllocator
	procs     []*Process
	nextPID   int
	noiseNext float64 // next noise tick in simulated seconds
	// zeroedPages counts pages the kernel zeroed, for diagnostics.
	zeroedPages uint64
}

// New returns a kernel managing the machine. It panics when a node's
// frames are not page-aligned or the machine has more frames than a
// page-table entry can number: both are platform-description bugs,
// not runtime conditions.
func New(m *machine.Machine, cfg Config) *Kernel {
	nodeBytes := m.Config().NodeBytes
	if nodeBytes%PageSize != 0 || uint64(m.Nodes())*(nodeBytes/PageSize) > math.MaxUint32 {
		panic(fmt.Sprintf("kernel: %d nodes of %d bytes do not fit 32-bit page-table entries", m.Nodes(), nodeBytes))
	}
	k := &Kernel{cfg: cfg, m: m}
	for n := 0; n < m.Nodes(); n++ {
		k.frames = append(k.frames, frameAllocator{
			base:  uint64(n) * m.Config().NodeBytes,
			limit: m.Config().NodeBytes,
		})
	}
	return k
}

// Machine returns the underlying machine.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// ZeroedPages reports how many pages the kernel has zeroed.
func (k *Kernel) ZeroedPages() uint64 { return k.zeroedPages }

// vma is a mapped virtual region with its NUMA policy.
type vma struct {
	start, end uint64 // byte addresses, end exclusive
	node       int    // NodeFirstTouch or an explicit node
}

// pageTable maps VPN -> PFN+1 (0 = not present): a flat 4 MB array,
// as the 32-bit space has 2^20 pages. kernel.New checks that every
// frame number fits.
type pageTable [VASize / PageSize]uint32

// pageTables holds the page tables of released kernels (see Release)
// for the address spaces of later runs.
var pageTables sync.Pool

// AddressSpace is a process's page table plus mapping metadata.
type AddressSpace struct {
	k *Kernel
	// pages is nil once the kernel is released.
	pages *pageTable
	vmas  []vma
	// Resident counts present pages, for peak-memory accounting.
	Resident     uint64
	PeakResident uint64
}

func newAddressSpace(k *Kernel) *AddressSpace {
	pt, _ := pageTables.Get().(*pageTable)
	if pt == nil {
		pt = new(pageTable)
	} else {
		clear(pt[:])
	}
	return &AddressSpace{k: k, pages: pt}
}

// Release hands the page tables of the kernel's processes to later
// address spaces. Call it once the processes have finished and nothing
// will read their address spaces again: a released address space
// panics on any use.
func (k *Kernel) Release() {
	for _, p := range k.procs {
		if p.AS.pages != nil {
			pageTables.Put(p.AS.pages)
			p.AS.pages = nil
		}
	}
}

// pte returns the page-table entry mapping a page to the frame at pa.
func pte(pa uint64) uint32 { return uint32(pa>>PageShift) + 1 }

// frameOf returns the physical address of a present entry's frame.
func frameOf(enc uint32) uint64 { return uint64(enc-1) << PageShift }

// MMap reserves [start, start+length) with the given NUMA policy node
// (NodeFirstTouch for the default policy). Overlapping or kernel-range
// mappings are rejected.
func (as *AddressSpace) MMap(start, length uint64, node int) error {
	if length == 0 || start%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("kernel: mmap of unaligned region %#x+%#x", start, length)
	}
	end := start + length
	if end > KernelBase {
		return fmt.Errorf("kernel: mmap into kernel range %#x+%#x", start, length)
	}
	for _, v := range as.vmas {
		if start < v.end && v.start < end {
			return fmt.Errorf("kernel: mmap overlaps existing mapping [%#x,%#x)", v.start, v.end)
		}
	}
	as.vmas = append(as.vmas, vma{start: start, end: end, node: node})
	return nil
}

// MBind sets the NUMA policy of an existing mapping, like mbind(2)
// after mmap in the paper's allocator. It applies to pages not yet
// touched; already-present pages stay where they are (mbind without
// MPOL_MF_MOVE).
func (as *AddressSpace) MBind(start, length uint64, node int) error {
	end := start + length
	for i := range as.vmas {
		v := &as.vmas[i]
		if start >= v.start && end <= v.end {
			if v.start == start && v.end == end {
				v.node = node
				return nil
			}
			// Split the vma so the bound range has its own policy.
			old := *v
			as.vmas[i] = vma{start: start, end: end, node: node}
			if old.start < start {
				as.vmas = append(as.vmas, vma{start: old.start, end: start, node: old.node})
			}
			if end < old.end {
				as.vmas = append(as.vmas, vma{start: end, end: old.end, node: old.node})
			}
			return nil
		}
	}
	return fmt.Errorf("kernel: mbind of unmapped range %#x+%#x", start, length)
}

// policyFor returns the policy node for a virtual address, or an error
// if the address is unmapped.
func (as *AddressSpace) policyFor(va uint64) (int, error) {
	for _, v := range as.vmas {
		if va >= v.start && va < v.end {
			return v.node, nil
		}
	}
	return 0, fmt.Errorf("kernel: segmentation fault at %#x", va)
}

// MUnmap removes a mapping and releases its frames.
func (as *AddressSpace) MUnmap(start, length uint64) error {
	end := start + length
	found := false
	for i := 0; i < len(as.vmas); i++ {
		v := as.vmas[i]
		if v.start >= start && v.end <= end {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			i--
			found = true
		}
	}
	if !found {
		return fmt.Errorf("kernel: munmap of unmapped range %#x+%#x", start, length)
	}
	mcfg := as.k.m.Config()
	for vpn := start / PageSize; vpn < end/PageSize; vpn++ {
		if enc := as.pages[vpn]; enc != 0 {
			pa := frameOf(enc)
			node := as.k.homeNodeOf(pa)
			as.k.frames[node].release(pa)
			if mcfg.TrackWindow {
				// A released frame must not carry its old owner's
				// window heat to whoever faults it in next.
				as.k.m.Node(node).ClearWindowPage(pa % mcfg.NodeBytes)
			}
			as.pages[vpn] = 0
			as.Resident--
		}
	}
	return nil
}

// homeNodeOf is a helper the kernel needs from the machine.
func (k *Kernel) homeNodeOf(pa uint64) int {
	return int(pa / k.m.Config().NodeBytes)
}

// Lookup translates va without faulting: ok reports whether the page
// is resident, and pa is its physical address when it is. The
// placement-policy engine uses it to observe placement without
// perturbing it.
func (as *AddressSpace) Lookup(va uint64) (pa uint64, ok bool) {
	if enc := as.pages[va>>PageShift]; enc != 0 {
		return frameOf(enc) | (va & (PageSize - 1)), true
	}
	return 0, false
}

// MappedRanges calls fn for every mapped region overlapping [lo, hi),
// clipped to it. The placement engine uses it to scan only the mapped
// fraction of the heap instead of the whole virtual range. Ranges are
// reported in mapping order, which is not address order.
func (as *AddressSpace) MappedRanges(lo, hi uint64, fn func(start, end uint64)) {
	for _, v := range as.vmas {
		s, e := v.start, v.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if s < e {
			fn(s, e)
		}
	}
}

// Residency counts the resident pages of [lo, hi) per NUMA node — the
// per-tier residency histogram reported at the end of a run.
func (as *AddressSpace) Residency(lo, hi uint64) []uint64 {
	counts := make([]uint64, as.k.m.Nodes())
	for vpn := lo / PageSize; vpn < hi/PageSize; vpn++ {
		if enc := as.pages[vpn]; enc != 0 {
			counts[as.k.homeNodeOf(frameOf(enc))]++
		}
	}
	return counts
}

// translate returns the PA for va, faulting it in if needed. The
// faulting thread pays the fault and zeroing cost in emulate-OS mode.
func (as *AddressSpace) translate(va uint64, th *machine.Thread) (uint64, error) {
	vpn := va >> PageShift
	if enc := as.pages[vpn]; enc != 0 {
		return frameOf(enc) | (va & (PageSize - 1)), nil
	}
	node, err := as.policyFor(va)
	if err != nil {
		return 0, err
	}
	if node == NodeFirstTouch {
		node = th.Socket
	}
	pa, err := as.k.frames[node].alloc()
	if err != nil {
		return 0, err
	}
	as.pages[vpn] = pte(pa)
	as.Resident++
	if as.Resident > as.PeakResident {
		as.PeakResident = as.Resident
	}
	if as.k.cfg.EmulateOS {
		// Minor fault: trap cost plus the kernel zeroing the page in
		// the faulting thread's context, through its caches.
		th.ComputeCycles(as.k.cfg.PageFaultCycles)
		th.AccessLines(pa, PageSize/machine.LineSize, true)
		as.k.zeroedPages++
	}
	return pa | (va & (PageSize - 1)), nil
}
