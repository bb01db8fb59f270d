// Package memdev models the physical memory devices that populate the
// emulation platform's NUMA nodes. A Device counts the cache-line reads
// and writebacks that reach its memory controller — the same quantity
// Intel's pcm-memory utility reports on the paper's hardware — and
// optionally tracks per-page wear for lifetime studies.
//
// In the paper's setup the devices on both sockets are physically DRAM;
// the remote socket's DRAM *plays the role of* PCM. The Kind field
// records that role so that reports can speak in terms of DRAM and PCM
// while the underlying accounting is identical, exactly as on the real
// emulator.
package memdev

import "fmt"

// LineSize is the transfer granularity of the memory controller in
// bytes. All counters are in units of 64-byte lines.
const LineSize = 64

// Kind is the role a device plays in the hybrid-memory emulation.
type Kind int

const (
	// DRAM is the fast, high-endurance technology (local socket).
	DRAM Kind = iota
	// PCM is the emulated phase-change memory (remote socket).
	PCM
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case PCM:
		return "PCM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes a device.
type Config struct {
	// Kind is the emulated technology.
	Kind Kind
	// Bytes is the device capacity.
	Bytes uint64
	// TrackWear enables a per-page write histogram for lifetime
	// studies and the wear-leveling policy. Counters are stored in
	// sparsely allocated chunks, so only the touched fraction of a
	// node costs memory.
	TrackWear bool
	// TrackWindow enables resettable per-page write counters over a
	// sampling window — the raw signal the placement-policy engine
	// reads each quantum. Counters are stored in sparsely allocated
	// chunks, so only the touched fraction of a node costs memory.
	TrackWindow bool
	// TrackWindowReads additionally counts per-page line reads in the
	// window. No built-in policy consumes reads, so this is off
	// unless a custom policy asks for it — read traffic dominates
	// most runs and the per-line counting is hot-path work.
	TrackWindowReads bool
}

// winChunkPages is the allocation unit of the sparse window counters:
// one chunk covers 4 MB of device memory.
const winChunkPages = 1024

// Device is one NUMA node's memory. It is not safe for concurrent use;
// the machine model is single-threaded by design (determinism).
type Device struct {
	cfg       Config
	readLines uint64
	wroteLine uint64
	// wear is the per-4KB-page lifetime write histogram when
	// TrackWear; winWrites/winReads are the resettable per-page
	// window counters when TrackWindow. All three are chunked so
	// untouched regions cost nothing.
	wear      [][]uint32
	winWrites [][]uint32
	winReads  [][]uint32
}

// New returns a device for the given configuration.
func New(cfg Config) *Device {
	return &Device{cfg: cfg}
}

// Kind reports the device's emulated technology.
func (d *Device) Kind() Kind { return d.cfg.Kind }

// Read records n line reads at the given device offset.
func (d *Device) Read(offset uint64, n uint64) {
	d.readLines += n
	if d.cfg.TrackWindowReads {
		for i := uint64(0); i < n; i++ {
			page := (offset + i*LineSize) / 4096
			if page >= d.cfg.Bytes/4096 {
				continue
			}
			bumpWindow(&d.winReads, page)
		}
	}
}

// Write records n line writebacks starting at the given device offset.
// Offsets beyond capacity are clamped into range (the machine model
// never produces them, but the device stays robust under direct use).
func (d *Device) Write(offset uint64, n uint64) {
	d.wroteLine += n
	if d.cfg.TrackWear || d.cfg.TrackWindow {
		for i := uint64(0); i < n; i++ {
			page := (offset + i*LineSize) / 4096
			if page >= d.cfg.Bytes/4096 {
				continue
			}
			if d.cfg.TrackWear {
				bumpWindow(&d.wear, page)
			}
			if d.cfg.TrackWindow {
				bumpWindow(&d.winWrites, page)
			}
		}
	}
}

// bumpWindow increments a sparse per-page window counter, allocating
// its chunk on first touch. The chunk directory grows to the chunk with
// at most one allocation, at least doubling its capacity: the kernel's
// noise writes land near the top of a node, so the first of them needs
// almost the whole directory.
func bumpWindow(win *[][]uint32, page uint64) {
	chunk := int(page / winChunkPages)
	if chunk >= len(*win) {
		if chunk >= cap(*win) {
			grown := make([][]uint32, len(*win), max(chunk+1, 2*cap(*win)))
			copy(grown, *win)
			*win = grown
		}
		*win = (*win)[:chunk+1]
	}
	if (*win)[chunk] == nil {
		(*win)[chunk] = make([]uint32, winChunkPages)
	}
	(*win)[chunk][page%winChunkPages]++
}

// readWindow reads a sparse window counter without allocating.
func readWindow(win [][]uint32, page uint64) uint32 {
	chunk := int(page / winChunkPages)
	if chunk >= len(win) || win[chunk] == nil {
		return 0
	}
	return win[chunk][page%winChunkPages]
}

// WindowWrites reports the line writebacks that landed on the 4 KB
// page holding offset since the last ResetWindow (0 when TrackWindow
// is off).
func (d *Device) WindowWrites(offset uint64) uint32 {
	return readWindow(d.winWrites, offset/4096)
}

// WindowReads reports the line reads that landed on the 4 KB page
// holding offset since the last ResetWindow (0 when TrackWindow is
// off).
func (d *Device) WindowReads(offset uint64) uint32 {
	return readWindow(d.winReads, offset/4096)
}

// TakeWindow consumes the window counters of the 4 KB page holding
// offset: it returns them and resets them to zero. The placement
// engine reads each process's pages destructively, so one instance's
// quantum never clears another's signal — frames are private to one
// address space at a time.
func (d *Device) TakeWindow(offset uint64) (writes, reads uint32) {
	page := offset / 4096
	writes = readWindow(d.winWrites, page)
	reads = readWindow(d.winReads, page)
	clearWindow(d.winWrites, page)
	clearWindow(d.winReads, page)
	return writes, reads
}

// ClearWindowPage zeroes the window counters of the 4 KB page holding
// offset. Page migration uses it so neither the stale heat of a
// released frame nor the copy traffic of a fresh one reads as
// mutator heat.
func (d *Device) ClearWindowPage(offset uint64) {
	page := offset / 4096
	clearWindow(d.winWrites, page)
	clearWindow(d.winReads, page)
}

// clearWindow zeroes a sparse window counter without allocating.
func clearWindow(win [][]uint32, page uint64) {
	chunk := int(page / winChunkPages)
	if chunk < len(win) && win[chunk] != nil {
		win[chunk][page%winChunkPages] = 0
	}
}

// ResetWindow starts a fresh observation window: every per-page
// access/write counter drops to zero. Allocated chunks are kept and
// zeroed so a steady-state policy quantum does not reallocate.
func (d *Device) ResetWindow() {
	for _, win := range [2][][]uint32{d.winWrites, d.winReads} {
		for _, chunk := range win {
			for i := range chunk {
				chunk[i] = 0
			}
		}
	}
}

// PageWear reports the lifetime write count of the 4 KB page holding
// offset (0 when TrackWear is off) — the wear-leveling policy's
// per-page signal.
func (d *Device) PageWear(offset uint64) uint32 {
	return readWindow(d.wear, offset/4096)
}

// ReadLines reports the cumulative number of line reads.
func (d *Device) ReadLines() uint64 { return d.readLines }

// WriteLines reports the cumulative number of line writebacks.
func (d *Device) WriteLines() uint64 { return d.wroteLine }

// WriteBytes reports cumulative writeback traffic in bytes.
func (d *Device) WriteBytes() uint64 { return d.wroteLine * LineSize }

// ReadBytes reports cumulative read traffic in bytes.
func (d *Device) ReadBytes() uint64 { return d.readLines * LineSize }

// ResetCounters zeroes the read/write counters but keeps wear history.
// The replay-compilation harness calls this between the warmup and the
// measured iteration.
func (d *Device) ResetCounters() {
	d.readLines = 0
	d.wroteLine = 0
}

// Wear summarises the per-page wear histogram.
type Wear struct {
	Pages    int    // pages with at least one write
	MaxPage  uint32 // writes to the most-written page
	Total    uint64 // total page writes recorded
	Tracked  bool   // whether wear tracking was enabled
	AllPages int    // total pages in the device
}

// WearSummary returns the wear histogram summary. When wear tracking is
// disabled only Total (from the line counter) is meaningful.
func (d *Device) WearSummary() Wear {
	w := Wear{Tracked: d.cfg.TrackWear, Total: d.wroteLine}
	if d.cfg.TrackWear {
		w.AllPages = int(d.cfg.Bytes / 4096)
	}
	for _, chunk := range d.wear {
		for _, c := range chunk {
			if c > 0 {
				w.Pages++
			}
			if c > w.MaxPage {
				w.MaxPage = c
			}
		}
	}
	return w
}

// Snapshot is a point-in-time copy of the device counters, used by the
// sampling write-rate monitor.
type Snapshot struct {
	ReadLines  uint64
	WriteLines uint64
}

// Snapshot returns the current counters.
func (d *Device) Snapshot() Snapshot {
	return Snapshot{ReadLines: d.readLines, WriteLines: d.wroteLine}
}
