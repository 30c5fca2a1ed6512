package bandit

import "testing"

// TestPickZeroAlloc pins the per-slot sampling cost: Thompson sampling must
// pick without heap allocation, since the explore path calls Pick once per
// served slot inside the warm-path alloc budget.
func TestPickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	st := State{
		Pulls: [NumArms]float64{ArmMF: 50, ArmSim: 30, ArmHot: 20},
		Wins:  [NumArms]float64{ArmMF: 10, ArmSim: 15, ArmHot: 2},
	}
	p := NewThompson(1)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = p.Pick(&st)
	})
	if allocs != 0 {
		t.Errorf("Pick allocates %.1f per call, want 0", allocs)
	}
}
