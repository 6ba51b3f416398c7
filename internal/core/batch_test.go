package core

import (
	"context"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
)

// TestBatchWidthDeterminism explores with BatchWidth 0 (default), 1 (forced
// scalar), 3, and 8, exhaustive and lazy, and requires the committed
// trajectory and full evaluated frontier to be bit-identical at every width —
// batch lane width must be a pure scheduling knob, exactly like Workers in
// TestParallelSweepDeterminism.
func TestBatchWidthDeterminism(t *testing.T) {
	mult8 := bench.Mult8()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Exhaustive", Config{
			K: 6, M: 4, Samples: 1 << 10, Seed: 17, ExploreFully: true, MaxSteps: 8,
			Workers: 2,
		}},
		{"Lazy", Config{
			K: 6, M: 4, Samples: 1 << 10, Seed: 17, ExploreFully: true, MaxSteps: 8,
			Lazy: true, Parallelism: 4, Workers: 2,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var ref *Result
			for _, width := range []int{1, 0, 3, 8} {
				cfg := tc.cfg
				cfg.BatchWidth = width
				res, err := Approximate(mult8.Circ, mult8.Spec, cfg)
				if err != nil {
					t.Fatalf("batchwidth=%d: %v", width, err)
				}
				if width == 1 {
					ref = res
					if len(ref.Steps) == 0 {
						t.Fatal("scalar exploration made no steps")
					}
					continue
				}
				assertSameExploration(t, width, ref, res)
			}
		})
	}
}

// TestBlockErrorProfilesMatchesScalar computes the per-block variant error
// landscape through fused multi-lane chunks and checks every report against
// the scalar incremental oracle evaluated variant by variant — and pins
// worker-count and width invariance of the whole surface.
func TestBlockErrorProfilesMatchesScalar(t *testing.T) {
	mult8 := bench.Mult8()
	res, err := Approximate(mult8.Circ, mult8.Spec, Config{
		K: 6, M: 4, Samples: 1 << 10, Seed: 5, MaxSteps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := res.BlockErrorProfiles(ctx, 1, 1) // scalar, serial oracle
	if err != nil {
		t.Fatal(err)
	}
	nVariants := 0
	for bi, p := range res.Profiles {
		if len(ref[bi]) != len(p.Variants) {
			t.Fatalf("block %d: %d reports for %d variants", bi, len(ref[bi]), len(p.Variants))
		}
		nVariants += len(p.Variants)
	}
	if nVariants == 0 {
		t.Fatal("no variants profiled")
	}
	for _, workers := range []int{1, 4} {
		for _, width := range []int{0, 3, 8} {
			got, err := res.BlockErrorProfiles(ctx, workers, width)
			if err != nil {
				t.Fatalf("workers=%d width=%d: %v", workers, width, err)
			}
			for bi := range ref {
				for f := range ref[bi] {
					if got[bi][f] != ref[bi][f] {
						t.Fatalf("workers=%d width=%d block %d degree %d:\n got %+v\nwant %+v",
							workers, width, bi, f+1, got[bi][f], ref[bi][f])
					}
				}
			}
		}
	}
}

// TestBlockErrorProfilesPaperLiteral runs the profile sweep through the
// paper-literal full-rebuild path (DisableIncremental) and requires the same
// surface the incremental batch path produced — the three evaluation paths
// agree end to end.
func TestBlockErrorProfilesPaperLiteral(t *testing.T) {
	mult8 := bench.Mult8()
	res, err := Approximate(mult8.Circ, mult8.Spec, Config{
		K: 6, M: 4, Samples: 1 << 10, Seed: 5, MaxSteps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batched, err := res.BlockErrorProfiles(ctx, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	res.Config.DisableIncremental = true
	literal, err := res.BlockErrorProfiles(ctx, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range literal {
		for f := range literal[bi] {
			if batched[bi][f] != literal[bi][f] {
				t.Fatalf("block %d degree %d: batched %+v != paper-literal %+v",
					bi, f+1, batched[bi][f], literal[bi][f])
			}
		}
	}
}

// TestBatchWidthExcludedFromDigest pins that BatchWidth, like Workers, does
// not change the checkpoint config digest — a run checkpointed at one width
// must resume at any other.
func TestBatchWidthExcludedFromDigest(t *testing.T) {
	base := Config{K: 6, M: 4, Samples: 1 << 10, Seed: 17}.withDefaults()
	wide := base
	wide.BatchWidth = 16
	wide.Workers = 9
	if configDigest(base) != configDigest(wide) {
		t.Fatal("BatchWidth/Workers changed the config digest; scheduling knobs must not")
	}
}
