package hybridmem

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sweepSpecs is the acceptance grid: 3 apps x all 8 collectors
// (3 apps x 3 collectors under the race detector, where each run
// costs ~10x more).
func sweepSpecs() []RunSpec {
	sweep := NewSweep("lusearch", "xalan", "pmd")
	if raceEnabled {
		sweep.Collectors(PCMOnly, KGN, KGW)
	} else {
		sweep.Collectors(Collectors()...)
	}
	return sweep.Specs()
}

func TestParseCollector(t *testing.T) {
	for _, k := range Collectors() {
		got, err := ParseCollector(k.String())
		if err != nil || got != k {
			t.Errorf("ParseCollector(%q) = %v, %v", k.String(), got, err)
		}
	}
	// Case- and punctuation-insensitive.
	for name, want := range map[string]Collector{
		"kgw":      KGW,
		"kg-n+loo": KGNLOO,
		"KGNLOO":   KGNLOO,
		"pcmonly":  PCMOnly,
		"KG_B":     KGB,
	} {
		if got, err := ParseCollector(name); err != nil || got != want {
			t.Errorf("ParseCollector(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCollector("zgc"); !errors.Is(err, ErrUnknownCollector) {
		t.Errorf("ParseCollector(zgc) err = %v, want ErrUnknownCollector", err)
	}
}

func TestParseScaleDatasetMode(t *testing.T) {
	for name, want := range map[string]Scale{"quick": Quick, "Std": Std, "FULL": Full} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); !errors.Is(err, ErrUnknownScale) {
		t.Errorf("ParseScale(huge) err = %v", err)
	}
	if ds, err := ParseDataset("large"); err != nil || ds != Large {
		t.Errorf("ParseDataset(large) = %v, %v", ds, err)
	}
	if _, err := ParseDataset("huge"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("ParseDataset(huge) err = %v", err)
	}
	for name, want := range map[string]Mode{"emul": Emulation, "sim": Simulation, "Simulation": Simulation} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("fpga"); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("ParseMode(fpga) err = %v", err)
	}
}

func TestRunTypedErrors(t *testing.T) {
	p := New(WithScale(Quick))
	ctx := context.Background()
	if _, err := p.Run(ctx, RunSpec{AppName: "nonsense", Collector: KGW}); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("unknown app err = %v, want ErrUnknownApp", err)
	}
	if _, err := p.Run(ctx, RunSpec{AppName: "pmd", Collector: Collector(99)}); !errors.Is(err, ErrUnknownCollector) {
		t.Errorf("bad collector err = %v, want ErrUnknownCollector", err)
	}
	if st := p.CacheStats(); st.Entries != 0 {
		t.Errorf("failed runs must not be cached: %+v", st)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	p := New(WithScale(Quick))
	res, err := p.Run(context.Background(), RunSpec{AppName: "pmd", Collector: KGW})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("JSON round trip changed the result:\n got %+v\nwant %+v", back, res)
	}
	if _, err := DecodeResult([]byte("{")); err == nil {
		t.Error("DecodeResult must reject malformed JSON")
	}
}

func TestSweepSpecs(t *testing.T) {
	specs := NewSweep("lusearch", "pmd").
		Collectors(PCMOnly, KGW).
		Instances(1, 4).
		Datasets(Default, Large).Specs()
	if len(specs) != 2*2*2*2 {
		t.Fatalf("sweep size = %d, want 16", len(specs))
	}
	// App-major, fixed order.
	if specs[0].AppName != "lusearch" || specs[0].Collector != PCMOnly ||
		specs[0].Instances != 1 || specs[0].Dataset != Default {
		t.Errorf("first spec = %+v", specs[0])
	}
	last := specs[len(specs)-1]
	if last.AppName != "pmd" || last.Collector != KGW || last.Instances != 4 || last.Dataset != Large {
		t.Errorf("last spec = %+v", last)
	}

	// Defaults: full registry x all collectors x 1 instance.
	if n := len(NewSweep().Specs()); n != 15*8 {
		t.Errorf("default sweep size = %d, want 120", n)
	}
	// Native collapses the collector dimension.
	native := NewSweep("PR", "CC").Native().Specs()
	if len(native) != 2 || !native[0].Native {
		t.Errorf("native sweep = %+v", native)
	}
}

// quickGridManifest pins the SHA-256 of every quick-grid cell's
// EncodeResult at seed 7, one "<hex>  <cell>" line per cell. It is the
// oracle for changes that must not move a single simulated count, such
// as a re-encoding of the cache model or the page table. Regenerate it
// only for a deliberate model change, with
// `go test -run TestRunBatchMatchesSerial -update`, and flag it in
// review.
const quickGridManifest = "testdata/quickgrid_seed7.sha256"

// TestRunBatchMatchesSerial is the acceptance determinism check: a
// parallel batch over 3 apps x 8 collectors must produce bit-identical
// Results to the same specs run serially with equal seeds, and each
// serial Result must match its pinned digest in quickGridManifest. Two
// more pinned cells cover the L3 geometries the grid does not build:
// a 4 MB L3 (2 ways, the paper's small-LLC comparison) and a 15 MB L3
// (20 ways over a set count that is not a power of two).
func TestRunBatchMatchesSerial(t *testing.T) {
	specs := sweepSpecs()
	ctx := context.Background()

	serial := New(WithScale(Quick), WithSeed(7))
	want := make([]Result, len(specs))
	var digests []cellDigest
	for i, s := range specs {
		res, err := serial.Run(ctx, s)
		if err != nil {
			t.Fatalf("serial %v: %v", s, err)
		}
		want[i] = res
		digests = append(digests, digestCell(t, s.AppName+"/"+s.Collector.String(), res))
	}

	parallel := New(WithScale(Quick), WithSeed(7))
	got, err := parallel.RunBatch(ctx, specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("spec %d (%s/%s): parallel result differs from serial",
				i, specs[i].AppName, specs[i].Collector)
		}
	}

	for _, mb := range []int{4, 15} {
		spec := RunSpec{AppName: "pmd", Collector: KGN}
		res, err := New(WithScale(Quick), WithSeed(7), WithL3MB(mb)).Run(ctx, spec)
		if err != nil {
			t.Fatalf("%v with a %d MB L3: %v", spec, mb, err)
		}
		digests = append(digests, digestCell(t, fmt.Sprintf("pmd/KG-N/l3mb=%d", mb), res))
	}
	checkManifest(t, quickGridManifest, digests)
}

// graphChiManifest pins the SHA-256 of quick GraphChi cells' Results,
// one "<hex>  <cell>" line per cell, as quickGridManifest does for the
// DaCapo grid. GraphChi graphs are seeded by kind, not by the run
// seed, so the two policy cells must also equal the emulate-graph
// entries of perfbench/oracle.json, which are recorded at seed 1.
const graphChiManifest = "testdata/graphchi_quick.sha256"

// pinnedCell is one experiment of a Result manifest: a spec on a
// fresh quick platform at seed 7, with extra options.
type pinnedCell struct {
	name string
	opts []Option
	spec RunSpec
}

// run executes the cell and digests its Result.
func (c pinnedCell) run(t *testing.T) cellDigest {
	t.Helper()
	opts := append([]Option{WithScale(Quick), WithSeed(7)}, c.opts...)
	res, err := New(opts...).Run(context.Background(), c.spec)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return digestCell(t, c.name, res)
}

// graphChiCells covers each vertex program under KG-N, PageRank under
// KG-W and both migrating policies, and the C++ versions of PR and
// ALS. The race detector runs two of them, one managed and one native.
func graphChiCells() []pinnedCell {
	pr := RunSpec{AppName: "PR", Collector: KGN}
	cells := []pinnedCell{
		{"PR/KG-N", nil, pr},
		{"ALS/native", nil, RunSpec{AppName: "ALS", Native: true}},
		{"CC/KG-N", nil, RunSpec{AppName: "CC", Collector: KGN}},
		{"ALS/KG-N", nil, RunSpec{AppName: "ALS", Collector: KGN}},
		{"PR/KG-W", nil, RunSpec{AppName: "PR", Collector: KGW}},
		{"PR/native", nil, RunSpec{AppName: "PR", Native: true}},
		{"PR/KG-N/write-threshold", []Option{WithPolicy(WriteThreshold)}, pr},
		{"PR/KG-N/wear-level", []Option{WithPolicy(WearLevel)}, pr},
	}
	if raceEnabled {
		cells = cells[:2]
	}
	return cells
}

// TestGraphChiMatchesManifest checks each GraphChi cell's Result
// against its digest in graphChiManifest.
func TestGraphChiMatchesManifest(t *testing.T) {
	var digests []cellDigest
	for _, c := range graphChiCells() {
		digests = append(digests, c.run(t))
	}
	checkManifest(t, graphChiManifest, digests)
}

// cellDigest is one line of a Result manifest.
type cellDigest struct{ cell, sum string }

func digestCell(t *testing.T, cell string, res Result) cellDigest {
	t.Helper()
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return cellDigest{cell: cell, sum: hex.EncodeToString(sum[:])}
}

// checkManifest compares digests against the manifest at path, or
// rewrites it under -update. The race detector's reduced grid checks
// the cells it runs and may not rewrite the file.
func checkManifest(t *testing.T, path string, digests []cellDigest) {
	t.Helper()
	if *updateGolden {
		if raceEnabled {
			t.Fatal("the race build runs a reduced grid; regenerate the manifest without -race")
		}
		var buf bytes.Buffer
		for _, d := range digests {
			fmt.Fprintf(&buf, "%s  %s\n", d.sum, d.cell)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned := make(map[string]string)
	readManifest(t, path, pinned)
	for _, d := range digests {
		switch want, ok := pinned[d.cell]; {
		case !ok:
			t.Errorf("%s: no digest for cell %s", path, d.cell)
		case want != d.sum:
			t.Errorf("cell %s: Result digest %s, pinned %s", d.cell, d.sum, want)
		}
	}
	if !raceEnabled && len(pinned) != len(digests) {
		t.Errorf("%s pins %d cells, the grid ran %d", path, len(pinned), len(digests))
	}
}

// readManifest adds the cell digests of the manifest at path to pinned.
func readManifest(t *testing.T, path string, pinned map[string]string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, cell, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		pinned[cell] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatchCacheHits(t *testing.T) {
	specs := sweepSpecs()
	p := New(WithScale(Quick))
	ctx := context.Background()
	first, err := p.RunBatch(ctx, specs...)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.RunBatch(ctx, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached batch results differ from the originals")
	}
	st := p.CacheStats()
	if st.Entries != len(specs) {
		t.Errorf("entries = %d, want %d", st.Entries, len(specs))
	}
	if st.Misses != uint64(len(specs)) || st.Hits < uint64(len(specs)) {
		t.Errorf("cache stats = %+v, want %d misses and >= %d hits", st, len(specs), len(specs))
	}
}

// TestRunConcurrentSingleFlight checks that concurrent identical Run
// calls share one execution.
func TestRunConcurrentSingleFlight(t *testing.T) {
	p := New(WithScale(Quick))
	spec := RunSpec{AppName: "pmd", Collector: KGW}
	ctx := context.Background()
	const callers = 8
	results := make([]Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Run(ctx, spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("caller %d saw a different result", i)
		}
	}
	if st := p.CacheStats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want a single execution", st)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	p := New(WithScale(Quick), WithParallelism(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	start := time.Now()
	_, err := p.RunBatch(ctx, NewSweep(Apps()...).Specs()...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 120 specs at ~100ms each would take ~6s on 2 workers; a prompt
	// cancellation returns orders of magnitude faster.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled batch took %v", d)
	}
	if st := p.CacheStats(); st.Entries != 0 {
		t.Errorf("cancelled batch must not populate the cache: %+v", st)
	}
}

// TestRunBatchSpeedup is the acceptance wall-clock check: on >= 4
// cores the 3x8 sweep through RunBatch must be at least 2x faster than
// the same specs run serially. Fresh platforms on both sides keep the
// comparison cache-free.
func TestRunBatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 cores, have %d", runtime.NumCPU())
	}
	specs := sweepSpecs()
	ctx := context.Background()

	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		serial := New(WithScale(Quick), WithParallelism(1))
		t0 := time.Now()
		if _, err := serial.RunBatch(ctx, specs...); err != nil {
			t.Fatal(err)
		}
		serialD := time.Since(t0)

		parallel := New(WithScale(Quick))
		t0 = time.Now()
		if _, err := parallel.RunBatch(ctx, specs...); err != nil {
			t.Fatal(err)
		}
		parallelD := time.Since(t0)

		speedup := serialD.Seconds() / parallelD.Seconds()
		if speedup > best {
			best = speedup
		}
		t.Logf("attempt %d: serial %v, parallel %v, speedup %.2fx", attempt, serialD, parallelD, speedup)
		if best >= 2 {
			return
		}
	}
	t.Errorf("RunBatch speedup = %.2fx, want >= 2x on %d cores", best, runtime.NumCPU())
}
