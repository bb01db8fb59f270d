package main

import (
	"context"
	"io"
	"math"
	"testing"
	"time"
)

func TestRefScale(t *testing.T) {
	for _, tc := range []struct {
		kernel []float64
		want   float64
	}{
		{[]float64{calRef}, 1},
		{[]float64{2 * calRef, 0.1 * calRef, 1.2 * calRef}, 1 / 1.2},
		{[]float64{calRef / 2, calRef / 2, 4 * calRef}, 2},
	} {
		if got := refScale(tc.kernel); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("refScale(%v) = %v, want %v", tc.kernel, got, tc.want)
		}
	}
	// A host at half the reference speed takes twice calRef over the
	// kernel; a 2 s op there is a 1 s op at the reference speed.
	if got := 2 * refScale([]float64{2 * calRef}); math.Abs(got-1) > 1e-12 {
		t.Errorf("2 s at half speed = %v s at the reference speed, want 1", got)
	}
}

// sleeper is a workload whose ops sleep and allocate nothing.
type sleeper struct{ d time.Duration }

func (w sleeper) setup(context.Context, *env) error { return nil }
func (w sleeper) op(context.Context, *env) error {
	time.Sleep(w.d)
	return nil
}
func (w sleeper) clients() int                                                  { return 2 }
func (w sleeper) windowFailures() int                                           { return 0 }
func (w sleeper) layers(*spanReport, loopResult, loopResult, map[string]metric) {}
func (w sleeper) close()                                                        {}

// TestCalibratedWindowLeavesKernelOut checks that a calibrated window
// times the kernel before its epoch and after it, and charges neither
// the kernel's time nor its allocation to the ops.
func TestCalibratedWindowLeavesKernelOut(t *testing.T) {
	e := newEnv(config{workload: "sleeper", seed: defaultSeed + 1}, io.Discard)
	d := time.Second
	lr := timedLoop(context.Background(), e, sleeper{5 * time.Millisecond}, d, true)
	if len(lr.kernel) != 2 {
		t.Fatalf("%d calibrations in a window shorter than an epoch, want 2", len(lr.kernel))
	}
	for _, k := range lr.kernel {
		if k <= 0 {
			t.Errorf("kernel time %v, want a positive time", k)
		}
	}
	// The window's deadline counts the first calibration; the clients
	// run from its end to the deadline, plus the ops then in flight.
	if most := d.Seconds() - lr.kernel[0] + 0.1; lr.wall <= 0 || lr.wall > most {
		t.Errorf("clients ran %.3f s, want more than 0 and at most %.3f s", lr.wall, most)
	}
	if lr.allocMB > 1 {
		t.Errorf("ops that allocate nothing were charged %.1f MB", lr.allocMB)
	}
	if len(lr.lat) == 0 || lr.failed != 0 {
		t.Errorf("%d ops, %d failed", len(lr.lat), lr.failed)
	}
}
