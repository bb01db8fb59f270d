// Package graphchi implements a GraphChi-style out-of-core graph
// engine and the three applications the paper evaluates: PageRank
// (PR), Connected Components (CC), and ALS matrix factorization (ALS).
//
// Unlike the DaCapo/Pjbb profiles, these run the engine's real data
// flow over a real graph: the engine shards a synthetic RMAT graph
// (the LiveJournal stand-in; a ratings matrix stands in for the
// Netflix training set), streams one shard buffer at a time (allocate,
// load, process, release — the short-lived large objects at the heart
// of the paper's LOO analysis), and maintains per-vertex state in
// segmented large arrays. PR and ALS are traffic patterns: each edge
// reads its source's vertex state and writes its destination's, and
// the values they would compute steer nothing. Only CC computes its
// labels, because a converged label is not rewritten, so CC's write
// traffic falls as it converges. The Java-version behaviours the paper
// measures are modelled faithfully: allocation is zero-initialized by
// the managed runtime, per-edge processing allocates boxing
// temporaries (tuned so Java allocates 1.34x/1.6x/2x the C++ volume
// for PR/CC/ALS), and the C++ version frees its buffers manually and
// never zeroes.
//
// The paper's defaults: 1 M edges (PR, CC) and 1 M ratings (ALS);
// large datasets are 10 M. Nursery 32 MB (the paper found 4 MB hurts
// GraphChi), heap twice the minimum.
package graphchi

import (
	"fmt"

	"repro/internal/workloads"
)

// Kind selects the vertex program.
type Kind int

const (
	// PR is PageRank.
	PR Kind = iota
	// CC is connected components by label propagation.
	CC
	// ALS is alternating-least-squares matrix factorization.
	ALS
)

// String returns the paper's abbreviation.
func (k Kind) String() string {
	switch k {
	case PR:
		return "PR"
	case CC:
		return "CC"
	case ALS:
		return "ALS"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dataset scale: the paper's default and large inputs.
const (
	defaultEdges = 1_000_000
	largeEdges   = 10_000_000
	// ljVertexSpace is the LiveJournal vertex-id space: GraphChi sizes
	// its per-vertex arrays by the graph's id space, not by the number
	// of vertices an edge sample happens to touch, so even the 1M-edge
	// default input carries tens of megabytes of vertex state — the
	// LLC-overflowing footprint behind GraphChi's high PCM write
	// rates (for both the C++ and Java versions).
	ljVertexSpace = 4_800_000
	// Netflix-shaped rating matrix for ALS.
	nfUserSpace = 480_000
	nfItemRatio = 27
	// segVerts is the number of vertices per value-array segment
	// (segments are large objects in the managed heap).
	segVerts = 32768
	// shardTargetBytes sizes the streamed edge buffers (~1 MB, the
	// short-lived large objects LOO targets).
	shardTargetBytes = 1 << 20
	// alsFactors is the ALS latent dimension.
	alsFactors = 8
)

type edge struct{ src, dst uint32 }

// graph is the Go-side dataset: sharded edges. The charged memory
// traffic flows through the Env; this struct is the algorithm's view
// of the input, standing in for the on-disk shards.
type graph struct {
	srcVerts int // source id space (users for ALS)
	dstVerts int // destination id space (items for ALS)
	edges    int
	shards   [][]edge // grouped by destination range
	bySrc    [][]edge // grouped by source range (ALS second sweep)
	numShard int
}

// vertsFor sizes the vertex id space of an edge sample: sparse samples
// of a social graph span roughly four ids per edge, capped by the
// graph's full id space (denser samples reuse vertices, which is why
// the paper's 10M-edge inputs lower the write rate per edge).
func vertsFor(edges int) int {
	v := 4 * edges
	if v > ljVertexSpace {
		v = ljVertexSpace
	}
	if v < 1024 {
		v = 1024
	}
	return v
}

// rmatLow is the RMAT recursion's per-bit bias, 0.72, as a bound on
// the 53-bit draw behind workloads.RNG.Float: Float() < 0.72 exactly
// when Next()>>11 < rmatLow. Float is (Next()>>11)·2^-53 exactly, and
// float64(0.72)·2^53 is an integer, so the two tests agree on every
// draw. It is computed from the float64, not from the exact decimal
// 0.72·2^53, which is not an integer.
var rmatLow = uint64(float64(0.72) * (1 << 53))

// buildGraph deterministically generates an RMAT-skewed edge list over
// a (srcVerts x dstVerts) id grid and shards it by destination (and,
// when wantSrc is set, by source for ALS's user sweep). Each shard
// lists its edges in generation order.
func buildGraph(edges int, seed uint64, wantSrc bool, srcVerts, dstVerts int) *graph {
	g := &graph{srcVerts: srcVerts, dstVerts: dstVerts, edges: edges}
	g.numShard = (edges*8 + shardTargetBytes - 1) / shardTargetBytes
	if g.numShard < 4 {
		g.numShard = 4
	}

	rng := workloads.NewRNG(seed)
	rmat := func(verts int) uint32 {
		// Power-of-two grid for the RMAT recursion. The 0.72 per-bit
		// bias yields the heavy-tailed degree distribution of social
		// graphs like LiveJournal. A bit is set when its draw is not
		// below rmatLow; the sign of the difference decides it without
		// a branch the host would mispredict.
		dim := uint64(1)
		for dim < uint64(verts) {
			dim <<= 1
		}
		v := uint64(0)
		for bit := dim >> 1; bit > 0; bit >>= 1 {
			low := (rng.Next()>>11 - rmatLow) >> 63
			v |= bit * (1 ^ low)
		}
		return uint32(v % uint64(verts))
	}
	all := make([]edge, edges)
	for i := range all {
		all[i] = edge{src: rmat(srcVerts), dst: rmat(dstVerts)}
	}
	g.shards = shardBy(all, g.numShard, dstVerts, func(e edge) uint32 { return e.dst })
	if wantSrc {
		g.bySrc = shardBy(all, g.numShard, srcVerts, func(e edge) uint32 { return e.src })
	}
	return g
}

// shardBy groups edges into n shards by the vertex key picks, over
// equal ranges of a verts-id space, keeping each shard in edge order.
// It counts the shards first and then fills them, so every shard is a
// window of one exactly sized array.
func shardBy(edges []edge, n, verts int, key func(edge) uint32) [][]edge {
	shardOf := func(e edge) int {
		s := int(uint64(key(e)) * uint64(n) / uint64(verts))
		if s >= n {
			s = n - 1
		}
		return s
	}
	counts := make([]int, n)
	for _, e := range edges {
		counts[shardOf(e)]++
	}
	backing := make([]edge, len(edges))
	shards := make([][]edge, n)
	off := 0
	for s, c := range counts {
		shards[s] = backing[off : off : off+c]
		off += c
	}
	for _, e := range edges {
		s := shardOf(e)
		shards[s] = append(shards[s], e)
	}
	return shards
}

// pageCache models the OS file cache backing the on-disk shards: a
// persistent, read-mostly region the engine streams through on every
// shard load. Its footprint is the file size, so shard loading evicts
// dirty lines from the LLC — for the C++ engine just as for the JVM.
type pageCache struct {
	segs  []workloads.Ref
	slots []int
	bytes int
}

func newPageCache(env workloads.Env, bytes int) *pageCache {
	pc := &pageCache{bytes: bytes}
	const seg = 2 << 20
	for off := 0; off < bytes; off += seg {
		n := seg
		if bytes-off < n {
			n = bytes - off
		}
		ref := env.Alloc(n+16, 0)
		pc.segs = append(pc.segs, ref)
		pc.slots = append(pc.slots, env.AddRoot(ref))
	}
	return pc
}

// stream reads n bytes starting at off, 4 KB at a time.
func (pc *pageCache) stream(env workloads.Env, off, n int) {
	const seg = 2 << 20
	for r := 0; r < n; r += 4096 {
		pos := (off + r) % pc.bytes
		chunk := 4096
		if rem := n - r; rem < chunk {
			chunk = rem
		}
		if segRem := seg - pos%seg; segRem < chunk {
			chunk = segRem
		}
		env.Read(pc.segs[pos/seg], 16+pos%seg, chunk)
	}
}

// writeback writes n bytes of updated edge values starting at off —
// GraphChi propagates values along edges, so every iteration rewrites
// the shard files through the page cache (a major write source for
// the C++ engine as much as for the JVM).
func (pc *pageCache) writeback(env workloads.Env, off, n int) {
	const seg = 2 << 20
	for r := 0; r < n; r += 4096 {
		pos := (off + r) % pc.bytes
		chunk := 4096
		if rem := n - r; rem < chunk {
			chunk = rem
		}
		if segRem := seg - pos%seg; segRem < chunk {
			chunk = segRem
		}
		env.Write(pc.segs[pos/seg], 16+pos%seg, chunk)
	}
}

func (pc *pageCache) release(env workloads.Env) {
	for i, s := range pc.slots {
		env.SetRoot(s, workloads.NilRef)
		env.DropRoot(s)
		if !env.Managed() {
			env.Free(pc.segs[i])
		}
	}
}

// graphFor builds a kind's input of the given size: a Netflix-shaped
// user x item rating matrix for ALS, a LiveJournal-shaped graph for PR
// and CC. The graph is seeded by the kind alone.
func graphFor(kind Kind, edges int) *graph {
	seed := 0xC0FFEE + uint64(kind)*7
	if kind == ALS {
		users := edges / 2
		if users > nfUserSpace {
			users = nfUserSpace
		}
		if users < 1024 {
			users = 1024
		}
		items := users / nfItemRatio
		if items < 1024 {
			items = 1024
		}
		return buildGraph(edges, seed, true, users, items)
	}
	v := vertsFor(edges)
	return buildGraph(edges, seed, false, v, v)
}

// App is one GraphChi application instance.
type App struct {
	kind Kind
	// edgesOverride shrinks the dataset for tests and examples
	// (0 = the paper's sizes); largeFactor overrides the 10x
	// large-dataset multiplier.
	edgesOverride int
	largeFactor   int

	g      *graph
	ds     workloads.Dataset
	labels []uint32
	// edgeFileBytes is the size of the edge-data region of the page
	// cache; the vertex-data file follows it.
	edgeFileBytes int
	// vertexRefs and vertexSlots hold an interval's vertex-state
	// objects and their root slots, reused across intervals.
	vertexRefs  []workloads.Ref
	vertexSlots []int
	// per-edge boxing cadence, tuned per app so the managed version
	// allocates the paper's 1.34x/1.6x/2x of the C++ volume.
	tempEvery int
	tempBytes int
	// per-edge compute units (sets the write rate).
	edgeCompute int
	iters       int
}

var _ workloads.App = (*App)(nil)

// New returns a fresh application instance.
func New(kind Kind) *App {
	a := &App{kind: kind}
	switch kind {
	case PR:
		a.tempEvery, a.tempBytes, a.edgeCompute, a.iters = 1, 24, 26, 3
	case CC:
		a.tempEvery, a.tempBytes, a.edgeCompute, a.iters = 1, 24, 20, 5
	case ALS:
		a.tempEvery, a.tempBytes, a.edgeCompute, a.iters = 1, 40, 120, 2
	}
	return a
}

// Name returns the paper's benchmark name.
func (a *App) Name() string { return a.kind.String() }

// Suite returns GraphChi.
func (a *App) Suite() workloads.Suite { return workloads.GraphChi }

// NurseryMB is 32 (the paper's choice for GraphChi).
func (a *App) NurseryMB() int { return 32 }

// HeapMB is the mature budget; GraphChi's interval buffers make it
// churn-heavy, and the paper notes it performs full-heap collections
// more often than DaCapo.
func (a *App) HeapMB() int {
	switch a.kind {
	case ALS:
		return 96
	case CC:
		return 64
	default:
		return 80
	}
}

// HasLargeDataset reports true: the 10 M edge/rating inputs.
func (a *App) HasLargeDataset() bool { return true }

// NewWithEdges returns an instance over a custom edge count, for
// tests and examples that cannot afford the paper-scale inputs.
func NewWithEdges(kind Kind, edges int) *App {
	a := New(kind)
	a.edgesOverride = edges
	return a
}

// NewWithEdgesAndLarge additionally overrides the large-dataset
// multiplier (the paper's is 10x).
func NewWithEdgesAndLarge(kind Kind, edges, largeFactor int) *App {
	a := NewWithEdges(kind, edges)
	a.largeFactor = largeFactor
	return a
}

// edgeCount returns the dataset size.
func (a *App) edgeCount(ds workloads.Dataset) int {
	if a.edgesOverride > 0 {
		f := a.largeFactor
		if f <= 0 {
			f = 10
		}
		if ds == workloads.Large {
			return a.edgesOverride * f
		}
		return a.edgesOverride
	}
	if ds == workloads.Large {
		return largeEdges
	}
	return defaultEdges
}

// Run executes one full execution of the vertex program over the
// sharded graph. It ignores seed: the graph is seeded by the kind
// alone (graphFor), so a GraphChi Result does not depend on the run
// seed.
func (a *App) Run(env workloads.Env, ds workloads.Dataset, seed uint64) {
	if a.g == nil || a.ds != ds {
		a.g = graphFor(a.kind, a.edgeCount(ds))
		a.ds = ds
	}
	// The page cache backing the shard files (edge data followed by
	// vertex data) persists for the whole execution — the OS keeps the
	// files resident across iterations. Both engines stream and
	// rewrite these files every iteration, which is where the C++
	// version's memory writes come from.
	a.edgeFileBytes = a.g.edges*8 + 4096
	elemB := 16
	switch a.kind {
	case CC:
		elemB = 8
	case ALS:
		elemB = alsFactors * 8
	}
	nVerts := a.g.dstVerts
	if a.g.srcVerts > nVerts {
		nVerts = a.g.srcVerts
	}
	pc := newPageCache(env, a.edgeFileBytes+nVerts*elemB+4096)
	defer pc.release(env)
	switch a.kind {
	case PR:
		a.runPageRank(env, pc)
	case CC:
		a.runCC(env, pc)
	case ALS:
		a.runALS(env, pc)
	}
}

// interval is one shard execution. The engine loads the shard's edges
// from the page cache into a buffer, materializes the interval's
// vertex state, hands every edge to process, writes the updated edge
// values back through the page cache, and releases everything.
//
// The two language implementations differ exactly as the paper
// describes: the Java engine materializes the interval as per-vertex
// objects (grouped a cache line at a time here), zero-initialized and
// allocated in the nursery — the fresh-allocation churn that KG-N
// captures in DRAM — plus per-edge iterator/boxing temporaries; the
// C++ engine uses flat malloc'd arrays that are reused LIFO across
// intervals and never zeroed.
func (a *App) interval(env workloads.Env, pc *pageCache, shard []edge, shardIdx, vertsInBlock, vertexElemB int,
	process func(i int, e edge, touchBlock func(v int, write bool))) {
	if len(shard) == 0 {
		return
	}
	// RMAT skew can concentrate a large share of the edges in one
	// destination range; split oversized shards into sub-intervals so
	// every edge buffer stays an allocatable large object (GraphChi
	// likewise subdivides intervals to fit its memory budget).
	const maxShardEdges = (3 << 20) / 8
	for len(shard) > maxShardEdges {
		a.interval(env, pc, shard[:maxShardEdges], shardIdx, vertsInBlock, vertexElemB, process)
		shard = shard[maxShardEdges:]
	}
	bufBytes := len(shard)*8 + 16
	buf := env.Alloc(bufBytes, 0)
	bufSlot := env.AddRoot(buf)

	// Vertex state for the interval: group objects of groupVerts
	// vertices (Java) or segments of a flat block (C++). The slices
	// that hold them are reused across intervals; a sub-interval above
	// has released its own before this one fills them.
	const groupVerts = 16 // vertices per ChiVertex group object
	const segB = 2 << 20
	blockBytes := vertsInBlock * vertexElemB
	refs, slots := a.vertexRefs[:0], a.vertexSlots[:0]
	if env.Managed() {
		n := (vertsInBlock + groupVerts - 1) / groupVerts
		for i := 0; i < n; i++ {
			ref := env.Alloc(groupVerts*vertexElemB+16, 1)
			refs = append(refs, ref)
			slots = append(slots, env.AddRoot(ref))
		}
	} else {
		nseg := (blockBytes + segB - 1) / segB
		for i := 0; i < nseg; i++ {
			n := segB
			if rem := blockBytes - i*segB; rem < n {
				n = rem
			}
			ref := env.Alloc(n+16, 0)
			refs = append(refs, ref)
			slots = append(slots, env.AddRoot(ref))
		}
	}
	a.vertexRefs, a.vertexSlots = refs, slots

	// Load the shard: stream the file region through the page cache
	// into the edge buffer.
	pc.stream(env, shardIdx*bufBytes, bufBytes-16)
	for off := 0; off < bufBytes; off += 4096 {
		n := bufBytes - off
		if n > 4096 {
			n = 4096
		}
		env.Write(buf, off, n)
	}

	touch := func(v int, write bool) {
		vv := v % vertsInBlock
		if env.Managed() {
			g := refs[vv/groupVerts]
			off := 16 + (vv%groupVerts)*vertexElemB
			if write {
				env.Write(g, off, vertexElemB)
			} else {
				env.Read(g, off, vertexElemB)
			}
			return
		}
		off := vv * vertexElemB
		ref := refs[off/segB]
		if write {
			env.Write(ref, 16+off%segB, vertexElemB)
		} else {
			env.Read(ref, 16+off%segB, vertexElemB)
		}
	}
	temps := 0
	for i, e := range shard {
		env.Read(buf, 16+(i*8)%(bufBytes-16), 8)
		process(i, e, touch)
		temps++
		if env.Managed() && temps%a.tempEvery == 0 {
			env.Alloc(a.tempBytes, 1) // iterator/boxing garbage
		}
		env.Compute(a.edgeCompute)
	}

	// Write the interval's updated edge values and vertex data back to
	// the shard and vertex files through the page cache.
	pc.writeback(env, shardIdx*bufBytes, (bufBytes-16)/2)
	pc.writeback(env, a.edgeFileBytes+shardIdx*blockBytes, blockBytes)

	env.SetRoot(bufSlot, workloads.NilRef)
	env.DropRoot(bufSlot)
	if !env.Managed() {
		env.Free(buf)
	}
	for i, ref := range refs {
		env.SetRoot(slots[i], workloads.NilRef)
		env.DropRoot(slots[i])
		if !env.Managed() {
			env.Free(ref)
		}
	}
}

// runPageRank streams PageRank's traffic over the graph: per edge, a
// read of the source's rank in the interval's vertex block and an
// accumulating write of the destination's, then the per-vertex update
// of each iteration as compute. Rank state between iterations is
// disk-resident; each interval materializes its vertex block in
// memory.
func (a *App) runPageRank(env workloads.Env, pc *pageCache) {
	g := a.g
	n := g.dstVerts
	blockVerts := (n + g.numShard - 1) / g.numShard
	for iter := 0; iter < a.iters; iter++ {
		for si, shard := range g.shards {
			a.interval(env, pc, shard, si, blockVerts, 16, func(_ int, e edge, touch func(int, bool)) {
				touch(int(e.src), false) // source rank (cached block read)
				touch(int(e.dst), true)  // accumulate into the block
			})
		}
		env.Compute(4 * n)
	}
}

// runCC propagates minimum labels until a fixed point (bounded by the
// iteration cap). Stores shrink as labels converge, so later
// iterations write less — emergent, as in the real application.
func (a *App) runCC(env workloads.Env, pc *pageCache) {
	g := a.g
	n := g.dstVerts
	a.labels = make([]uint32, n)
	for v := range a.labels {
		a.labels[v] = uint32(v)
	}
	blockVerts := (n + g.numShard - 1) / g.numShard
	for iter := 0; iter < a.iters; iter++ {
		changed := 0
		for si, shard := range g.shards {
			a.interval(env, pc, shard, si, blockVerts, 8, func(_ int, e edge, touch func(int, bool)) {
				touch(int(e.src), false)
				if a.labels[e.src] < a.labels[e.dst] {
					a.labels[e.dst] = a.labels[e.src]
					touch(int(e.dst), true)
					changed++
				}
			})
		}
		if changed == 0 {
			break
		}
	}
}

// runALS alternates user and item least-squares sweeps over the
// ratings. Each sweep materializes the owning side's factor block per
// interval; each rating contributes a rank-one update (the block write
// traffic), and the sweep solves and writes the new factors.
func (a *App) runALS(env workloads.Env, pc *pageCache) {
	g := a.g
	userBlock := (g.srcVerts + g.numShard - 1) / g.numShard
	itemBlock := (g.dstVerts + g.numShard - 1) / g.numShard
	for sweep := 0; sweep < a.iters; sweep++ {
		// Users: group by source, read item factors, update user.
		for si, shard := range g.bySrc {
			a.interval(env, pc, shard, si, userBlock, alsFactors*8, func(_ int, e edge, touch func(int, bool)) {
				touch(int(e.dst), false) // item factor read (disk-cached)
				touch(int(e.src), true)  // user normal-equation update
			})
			env.Compute(40 * alsFactors * userBlock / g.numShard)
		}
		// Items: group by destination, read user factors, update item.
		for si, shard := range g.shards {
			a.interval(env, pc, shard, si, itemBlock, alsFactors*8, func(_ int, e edge, touch func(int, bool)) {
				touch(int(e.src), false)
				touch(int(e.dst), true)
			})
			env.Compute(40 * alsFactors * itemBlock / g.numShard)
		}
	}
}

// All returns fresh instances of the three applications.
func All() []workloads.App {
	return []workloads.App{New(PR), New(CC), New(ALS)}
}
