package bandit

import (
	"math"
	"math/rand/v2"
	"testing"

	"vidrec/internal/feedback"
)

// simulateBernoulli runs a policy against a Bernoulli environment with the
// given per-arm success probabilities for pulls rounds, using envSeed for
// the environment's own (separate) RNG, and returns per-arm pull counts and
// the cumulative regret against always playing the best arm.
func simulateBernoulli(p Policy, probs [NumArms]float64, pulls int, envSeed uint64) (counts [NumArms]int, regret float64) {
	env := rand.New(rand.NewPCG(envSeed, envSeed^0xABCD))
	best := probs[0]
	for _, q := range probs {
		if q > best {
			best = q
		}
	}
	var st State
	for i := 0; i < pulls; i++ {
		a := p.Pick(&st)
		counts[a]++
		st.Pulls[a]++
		if env.Float64() < probs[a] {
			st.Wins[a]++
		}
		regret += best - probs[a]
	}
	return counts, regret
}

// TestThompsonConvergence is the headline property: over 10k pulls on a
// clearly separated Bernoulli environment, Thompson sampling concentrates
// on the best arm and its cumulative regret is far below the uniform
// policy's — and sublinear, spending most of its mistakes early.
func TestThompsonConvergence(t *testing.T) {
	probs := [NumArms]float64{ArmMF: 0.5, ArmSim: 0.1, ArmHot: 0.8}
	const pulls = 10000

	counts, regret := simulateBernoulli(NewThompson(1), probs, pulls, 99)
	if share := float64(counts[ArmHot]) / pulls; share < 0.85 {
		t.Errorf("best arm drew %.1f%% of 10k pulls, want >= 85%%", 100*share)
	}

	// Uniform baseline: expected per-pull regret is best - mean(probs).
	mean := (probs[0] + probs[1] + probs[2]) / float64(NumArms)
	uniformRegret := pulls * (0.8 - mean)
	if regret > uniformRegret/4 {
		t.Errorf("thompson regret %.1f not far below uniform's %.1f", regret, uniformRegret)
	}

	// Sublinearity: the second half of the horizon must cost much less than
	// the first — a policy with linear regret spends evenly.
	_, regretHalf := simulateBernoulli(NewThompson(1), probs, pulls/2, 99)
	secondHalf := regret - regretHalf
	if secondHalf > regretHalf/2 {
		t.Errorf("regret is not sublinear: first half %.1f, second half %.1f", regretHalf, secondHalf)
	}
}

// TestPickDeterminism replays Thompson sampling under the same seed and state
// trajectory and demands identical pick sequences — the property the golden
// explored slate and the sim serve-digest stand on.
func TestPickDeterminism(t *testing.T) {
	run := func(p *Thompson) []Arm {
		env := rand.New(rand.NewPCG(3, 4))
		var st State
		out := make([]Arm, 0, 1000)
		for i := 0; i < 1000; i++ {
			a := p.Pick(&st)
			st.Pulls[a]++
			if env.Float64() < 0.4 {
				st.Wins[a]++
			}
			out = append(out, a)
		}
		return out
	}
	a, b := run(NewThompson(11)), run(NewThompson(11))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPosteriorExact pins the Beta parameterization with exact values.
func TestPosteriorExact(t *testing.T) {
	var st State
	st.Pulls[ArmSim], st.Wins[ArmSim] = 3, 2
	p := st.Posterior(ArmSim)
	if p.Alpha != 3 || p.Beta != 2 {
		t.Errorf("posterior after 3 pulls / 2 wins = Beta(%v,%v), want Beta(3,2)", p.Alpha, p.Beta)
	}
	if got := p.Mean(); got != 0.6 {
		t.Errorf("Beta(3,2) mean = %v, want 0.6", got)
	}
	fresh := st.Posterior(ArmMF)
	if fresh.Alpha != 1 || fresh.Beta != 1 || fresh.Mean() != 0.5 {
		t.Errorf("fresh posterior = Beta(%v,%v), want the uniform Beta(1,1)", fresh.Alpha, fresh.Beta)
	}
	// Defensive flooring: wins beyond pulls must not produce Beta < 1.
	st.Wins[ArmSim] = 5
	if p := st.Posterior(ArmSim); p.Beta != 1 {
		t.Errorf("wins>pulls posterior Beta = %v, want floored to 1", p.Beta)
	}
}

// TestGammaSampleMoments checks the Marsaglia–Tsang sampler against the
// Gamma distribution's known mean (= shape) within a seeded tolerance,
// including the boosted shape<1 branch.
func TestGammaSampleMoments(t *testing.T) {
	th := NewThompson(21)
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		const n = 60000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := th.gammaSample(shape)
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("gamma(%v) sample %v out of range", shape, x)
			}
			sum += x
		}
		if mean := sum / n; math.Abs(mean-shape) > 0.05*shape {
			t.Errorf("gamma(%v) sample mean %.4f, want within 5%% of %v", shape, mean, shape)
		}
	}
}

// TestBetaSampleRange draws across skewed posteriors and demands every
// sample in [0,1] with the mean tracking Alpha/(Alpha+Beta).
func TestBetaSampleRange(t *testing.T) {
	th := NewThompson(31)
	for _, p := range []Posterior{{1, 1}, {50, 2}, {2, 50}, {1, 9}} {
		const n = 40000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := th.betaSample(p.Alpha, p.Beta)
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("beta(%v,%v) sample %v outside [0,1]", p.Alpha, p.Beta, x)
			}
			sum += x
		}
		if mean := sum / n; math.Abs(mean-p.Mean()) > 0.02 {
			t.Errorf("beta(%v,%v) sample mean %.4f, want near %.4f", p.Alpha, p.Beta, mean, p.Mean())
		}
	}
}

// TestRewardFromWeight pins the weight→reward mapping against the feedback
// package's actual confidence scale: the maximum default weight maps to
// exactly 1, a click to 0.25, and garbage to 0.
func TestRewardFromWeight(t *testing.T) {
	w := feedback.DefaultWeights()
	maxW := 0.0
	for _, v := range w.Static {
		if v > maxW {
			maxW = v
		}
	}
	if got := RewardFromWeight(maxW); got != 1 {
		t.Errorf("max default weight %v maps to reward %v, want exactly 1 (scale drifted?)", maxW, got)
	}
	if got := RewardFromWeight(w.Static[feedback.Click]); got != 0.25 {
		t.Errorf("click weight maps to %v, want 0.25", got)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		got := RewardFromWeight(bad)
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Errorf("RewardFromWeight(%v) = %v, want clamped into [0,1]", bad, got)
		}
	}
	if got := RewardFromWeight(100); got != 1 {
		t.Errorf("oversized weight maps to %v, want clamped to 1", got)
	}
}

// TestArmString covers the wire names and the out-of-range rendering.
func TestArmString(t *testing.T) {
	for a, want := range map[Arm]string{ArmMF: "mf", ArmSim: "sim", ArmHot: "hot"} {
		if a.String() != want {
			t.Errorf("Arm(%d).String() = %q, want %q", uint8(a), a.String(), want)
		}
	}
	if Arm(7).Valid() || !ArmHot.Valid() {
		t.Error("arm validity misclassified")
	}
	if Arm(7).String() != "arm(7)" {
		t.Errorf("out-of-range arm renders %q", Arm(7).String())
	}
}

// TestStateValidate covers the validation corners DecodeState relies on.
func TestStateValidate(t *testing.T) {
	var ok State
	ok.Pulls[0], ok.Wins[0] = 5, 3
	if err := ok.Validate(); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	cases := []State{
		{Pulls: [NumArms]float64{math.NaN(), 0, 0}},
		{Pulls: [NumArms]float64{math.Inf(1), 0, 0}},
		{Pulls: [NumArms]float64{-1, 0, 0}},
		{Wins: [NumArms]float64{0, -2, 0}},
		{Pulls: [NumArms]float64{1, 0, 0}, Wins: [NumArms]float64{2, 0, 0}},
	}
	for i, st := range cases {
		if err := st.Validate(); err == nil {
			t.Errorf("case %d: invalid state %+v accepted", i, st)
		}
	}
}
