package jvm

import (
	"testing"
	"testing/quick"

	"repro/internal/objmodel"
)

// TestInvariantsUnderRandomMutation drives the runtime with random
// mutator programs (allocations of varying sizes, root churn,
// reference rewiring, writes, explicit collections) across all plans
// and checks the heap invariants after every collection-heavy phase.
// This is the GC's property-based torture test.
func TestInvariantsUnderRandomMutation(t *testing.T) {
	kinds := []Kind{PCMOnly, KGN, KGB, KGNLOO, KGBLOO, KGW, KGWNoLOO, KGWNoMDO}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			f := func(seed uint64) bool {
				ok := true
				_, _ = runJVM(t, kind, func(r *Runtime) {
					rng := seed
					next := func(n uint64) uint64 {
						rng = rng*6364136223846793005 + 1442695040888963407
						return (rng >> 33) % n
					}
					var rooted []objmodel.ObjID
					var slots []int
					for op := 0; op < 3000; op++ {
						switch next(10) {
						case 0, 1, 2, 3, 4: // allocate, sometimes root
							size := 24 + int(next(300))
							if next(40) == 0 {
								size = 8192 + int(next(16384)) // large
							}
							id := r.Alloc(size, int(next(9))) // up to 8: overflow slots too
							if next(3) == 0 {
								rooted = append(rooted, id)
								slots = append(slots, r.AddRoot(id))
							}
						case 5: // drop a root
							if len(rooted) > 0 {
								i := int(next(uint64(len(rooted))))
								r.DropRoot(slots[i])
								rooted = append(rooted[:i], rooted[i+1:]...)
								slots = append(slots[:i], slots[i+1:]...)
							}
						case 6: // rewire a reference
							if len(rooted) >= 2 {
								a := rooted[next(uint64(len(rooted)))]
								bo := rooted[next(uint64(len(rooted)))]
								ao := r.Table.Get(a)
								if ao.NumRefs() > 0 {
									r.WriteRef(a, int(next(uint64(ao.NumRefs()))), bo)
								}
							}
						case 7: // mutate
							if len(rooted) > 0 {
								r.Write(rooted[next(uint64(len(rooted)))], 8, 8)
							}
						case 8: // read
							if len(rooted) > 0 {
								r.Read(rooted[next(uint64(len(rooted)))], 8, 8)
							}
						case 9: // explicit collection
							r.Collect(next(4) == 0)
							if err := r.CheckInvariants(); err != nil {
								t.Errorf("seed %d op %d: %v", seed, op, err)
								ok = false
								return
							}
						}
					}
					r.Collect(true)
					if err := r.CheckInvariants(); err != nil {
						t.Errorf("seed %d final: %v", seed, err)
						ok = false
					}
					// Every rooted object must still be reachable.
					for i, id := range rooted {
						if r.Table.Get(id).Addr == 0 {
							t.Errorf("seed %d: rooted object %d (slot %d) was collected", seed, id, i)
							ok = false
						}
					}
				})
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestInvariantsCleanRuntime sanity-checks the checker itself.
func TestInvariantsCleanRuntime(t *testing.T) {
	_, _ = runJVM(t, KGW, func(r *Runtime) {
		id := r.Alloc(64, 1)
		r.AddRoot(id)
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("fresh heap violates invariants: %v", err)
		}
		r.Collect(false)
		r.Collect(true)
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("post-GC heap violates invariants: %v", err)
		}
	})
}
