package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hostMeta describes the host and build a run measured on. Every
// output carries it: a figure without its host cannot be compared.
func hostMeta(cfg config) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"modified":   modified,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssSampler samples the process's resident set while a window runs.
// The median of the samples is the window's working footprint: unlike
// the peak, it does not hinge on where one garbage-collection cycle
// happened to overshoot.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

// rssEvery is the sampling period.
const rssEvery = 50 * time.Millisecond

// rssPaused is set while a calibration runs, when the resident set is
// a heap just returned to the OS, not the program's working footprint.
var rssPaused atomic.Bool

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok && !rssPaused.Load() {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// medianMB stops the sampler and returns the median sample, or the
// process's peak resident set when /proc could not be read.
func (s *rssSampler) medianMB() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return median(s.samples)
}

// residentMB reads the process's current resident set from
// /proc/self/statm.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// cpuProfile is a runtime/pprof CPU profile being written to path.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(cfg config) (*cpuProfile, error) {
	path := fmt.Sprintf("%s/cpu-%s-seed%d.pprof", outDir, cfg.workload, cfg.seed)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting cpu profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and decodes its samples.
func (p *cpuProfile) stop() ([]profSample, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p.path)
	if err != nil {
		return nil, err
	}
	return parseCPUProfile(data)
}
