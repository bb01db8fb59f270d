package memdev

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if DRAM.String() != "DRAM" || PCM.String() != "PCM" {
		t.Errorf("Kind strings wrong: %v %v", DRAM, PCM)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string: %v", Kind(9))
	}
}

func TestCounters(t *testing.T) {
	d := New(Config{Kind: PCM, Bytes: 1 << 20})
	d.Write(0, 3)
	d.Read(64, 2)
	if d.WriteLines() != 3 {
		t.Errorf("WriteLines = %d, want 3", d.WriteLines())
	}
	if d.ReadLines() != 2 {
		t.Errorf("ReadLines = %d, want 2", d.ReadLines())
	}
	if d.WriteBytes() != 3*LineSize {
		t.Errorf("WriteBytes = %d, want %d", d.WriteBytes(), 3*LineSize)
	}
	if d.ReadBytes() != 2*LineSize {
		t.Errorf("ReadBytes = %d, want %d", d.ReadBytes(), 2*LineSize)
	}
	d.ResetCounters()
	if d.WriteLines() != 0 || d.ReadLines() != 0 {
		t.Error("ResetCounters did not zero counters")
	}
}

func TestWearTracking(t *testing.T) {
	d := New(Config{Kind: PCM, Bytes: 64 * 4096, TrackWear: true})
	// 64 lines = one full 4KB page.
	d.Write(0, 64)
	// One line in the second page.
	d.Write(4096, 1)
	w := d.WearSummary()
	if !w.Tracked {
		t.Fatal("wear should be tracked")
	}
	if w.Pages != 2 {
		t.Errorf("worn pages = %d, want 2", w.Pages)
	}
	if w.MaxPage != 64 {
		t.Errorf("max page wear = %d, want 64", w.MaxPage)
	}
	if w.AllPages != 64 {
		t.Errorf("AllPages = %d, want 64", w.AllPages)
	}
}

func TestWearSurvivesReset(t *testing.T) {
	d := New(Config{Kind: PCM, Bytes: 16 * 4096, TrackWear: true})
	d.Write(0, 1)
	d.ResetCounters()
	if got := d.WearSummary().Pages; got != 1 {
		t.Errorf("wear pages after reset = %d, want 1", got)
	}
}

func TestSnapshot(t *testing.T) {
	d := New(Config{Kind: DRAM, Bytes: 1 << 20})
	d.Write(0, 5)
	d.Read(0, 7)
	s := d.Snapshot()
	if s.WriteLines != 5 || s.ReadLines != 7 {
		t.Errorf("snapshot = %+v", s)
	}
	// Snapshot is a copy: further traffic must not alter it.
	d.Write(0, 1)
	if s.WriteLines != 5 {
		t.Error("snapshot mutated by later writes")
	}
}

// Property: write counters are additive over any sequence of writes.
func TestWriteAdditivityProperty(t *testing.T) {
	f := func(ns []uint8) bool {
		d := New(Config{Kind: PCM, Bytes: 1 << 20})
		var want uint64
		for _, n := range ns {
			d.Write(0, uint64(n))
			want += uint64(n)
		}
		return d.WriteLines() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowCountersTrackAndReset(t *testing.T) {
	d := New(Config{Kind: PCM, Bytes: 1 << 30, TrackWindow: true, TrackWindowReads: true})
	d.Write(0, 3)      // 3 lines on page 0
	d.Write(4096, 1)   // 1 line on page 1
	d.Read(4096, 2)    // 2 line reads on page 1
	d.Write(8<<20, 64) // a whole page, far away (own chunk)
	if got := d.WindowWrites(0); got != 3 {
		t.Errorf("WindowWrites(page 0) = %d, want 3", got)
	}
	if got := d.WindowWrites(4096); got != 1 {
		t.Errorf("WindowWrites(page 1) = %d, want 1", got)
	}
	if got := d.WindowReads(4096); got != 2 {
		t.Errorf("WindowReads(page 1) = %d, want 2", got)
	}
	if got := d.WindowWrites(8 << 20); got != 64 {
		t.Errorf("WindowWrites(distant page) = %d, want 64", got)
	}
	if got := d.WindowWrites(16 << 20); got != 0 {
		t.Errorf("untouched page window = %d, want 0", got)
	}
	d.ResetWindow()
	for _, off := range []uint64{0, 4096, 8 << 20} {
		if d.WindowWrites(off) != 0 || d.WindowReads(off) != 0 {
			t.Errorf("window at %#x not reset", off)
		}
	}
	// The cumulative controller counters are unaffected by the reset.
	if d.WriteLines() != 68 || d.ReadLines() != 2 {
		t.Errorf("cumulative counters disturbed: %d writes, %d reads", d.WriteLines(), d.ReadLines())
	}
}

func TestWindowDisabledIsFree(t *testing.T) {
	d := New(Config{Kind: DRAM, Bytes: 1 << 30})
	d.Write(0, 5)
	d.Read(0, 5)
	if d.WindowWrites(0) != 0 || d.WindowReads(0) != 0 {
		t.Error("window counters active without TrackWindow")
	}
}

func TestPageWear(t *testing.T) {
	d := New(Config{Kind: PCM, Bytes: 16 * 4096, TrackWear: true})
	d.Write(2*4096, 7)
	if got := d.PageWear(2*4096 + 100); got != 7 {
		t.Errorf("PageWear = %d, want 7", got)
	}
	if got := d.PageWear(0); got != 0 {
		t.Errorf("PageWear(untouched) = %d, want 0", got)
	}
	// Out of range stays safe and zero.
	if got := d.PageWear(1 << 40); got != 0 {
		t.Errorf("PageWear(out of range) = %d, want 0", got)
	}
}

func TestTakeWindowIsDestructivePerPage(t *testing.T) {
	d := New(Config{Kind: PCM, Bytes: 1 << 30, TrackWindow: true})
	d.Write(0, 3)
	d.Write(4096, 5)
	w, r := d.TakeWindow(0)
	if w != 3 || r != 0 {
		t.Errorf("TakeWindow(page 0) = (%d, %d), want (3, 0)", w, r)
	}
	if d.WindowWrites(0) != 0 {
		t.Error("TakeWindow did not consume page 0")
	}
	// Other pages keep their counters: one consumer's read must not
	// clear another page's signal.
	if got := d.WindowWrites(4096); got != 5 {
		t.Errorf("page 1 window = %d, want 5 after taking page 0", got)
	}
	d.ClearWindowPage(4096)
	if d.WindowWrites(4096) != 0 {
		t.Error("ClearWindowPage left the counter")
	}
}

// TestTrackingDirectoryGrowsOnce checks that the first write near the
// top of a large tracked device, where the kernel's noise lands,
// allocates the chunk directory in one step: one directory and one
// chunk per tracker.
func TestTrackingDirectoryGrowsOnce(t *testing.T) {
	const bytes = 66 << 30
	off := uint64(bytes - 16<<20)
	devs := make([]*Device, 101)
	for i := range devs {
		devs[i] = New(Config{Kind: DRAM, Bytes: bytes, TrackWear: true, TrackWindow: true})
	}
	next := 0
	allocs := testing.AllocsPerRun(len(devs)-1, func() {
		devs[next].Write(off, 24)
		next++
	})
	if allocs != 4 {
		t.Errorf("first write allocated %v times, want 4 (a directory and a chunk per tracker)", allocs)
	}
	d := devs[0]
	if d.WindowWrites(off) != 24 || d.PageWear(off) != 24 || d.WriteLines() != 24 {
		t.Errorf("window %d, wear %d, lines %d; want 24 each", d.WindowWrites(off), d.PageWear(off), d.WriteLines())
	}
}
