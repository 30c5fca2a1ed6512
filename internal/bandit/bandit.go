// Package bandit implements the exploration layer the paper's title
// promises: multi-armed bandit policies over the serving pipeline's blended
// candidate sources. Each slot of a recommendation list is treated as one
// pull of a four-armed bandit — the MF-ranked candidates (Eq. 2), the
// similar-table expansion, the demographic hot list, and the ANN retrieval
// (LSH over item factor vectors, when enabled) — and implicit
// feedback on served videos flows back as bounded rewards, so the slate
// composition shifts toward whichever source is earning clicks *right now*
// (the online-matching formulation of PAPERS.md's real-time bandit system).
//
// Determinism is a design constraint, not an afterthought: policies draw
// from an injected seeded RNG (rand.NewPCG), state lives in plain float
// counters with an explicit codec, and no code path consults the wall clock
// or global randomness — the same seed and reward history replay the exact
// slate sequence byte for byte, which is what lets the sim tier digest
// explored serving output and the golden test pin a slate to a file.
package bandit

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Arm identifies one candidate source feeding the blended slate.
type Arm uint8

const (
	// ArmMF is the personalized MF ranking (Eq. 2 scores, rank order).
	ArmMF Arm = iota
	// ArmSim is the similar-table expansion in seed order — the raw
	// candidate stream before ranking re-orders it.
	ArmSim
	// ArmHot is the demographic hot list (popularity order).
	ArmHot
	// ArmANN is the LSH approximate-nearest-neighbour retrieval over item
	// factor vectors (probe order). The pool is empty unless the serving
	// path runs with ANN retrieval enabled, in which case its candidates
	// rank by the same Eq. 2 scores as every other arm.
	ArmANN

	numArms
)

// NumArms is the number of candidate-source arms.
const NumArms = int(numArms)

var armNames = [NumArms]string{ArmMF: "mf", ArmSim: "sim", ArmHot: "hot", ArmANN: "ann"}

// String returns the arm's wire name.
func (a Arm) String() string {
	if int(a) < NumArms {
		return armNames[a]
	}
	return fmt.Sprintf("arm(%d)", uint8(a)) // alloccheck: out-of-range arm only; every served slot's arm is below NumArms
}

// Valid reports whether a names a real arm.
func (a Arm) Valid() bool { return int(a) < NumArms }

// State is the bandit's durable reward state: per-arm pull and win totals.
// Pulls count served slots attributed to the arm; Wins accumulate the [0,1]
// rewards those slots later earned. The pair induces the Beta posterior of
// Posterior — fresh state means uniform Beta(1,1) priors on every arm.
type State struct {
	Pulls [NumArms]float64
	Wins  [NumArms]float64
}

// Posterior is a Beta(Alpha, Beta) belief over one arm's reward rate.
type Posterior struct {
	Alpha, Beta float64
}

// Mean returns the posterior mean Alpha/(Alpha+Beta).
func (p Posterior) Mean() float64 { return p.Alpha / (p.Alpha + p.Beta) }

// Posterior returns the Beta posterior for arm a under a uniform Beta(1,1)
// prior: Alpha = 1 + wins, Beta = 1 + (pulls - wins). The losses term is
// floored at zero so a hand-built state with wins > pulls still yields a
// proper distribution.
func (s *State) Posterior(a Arm) Posterior {
	losses := s.Pulls[a] - s.Wins[a]
	if losses < 0 {
		losses = 0
	}
	return Posterior{Alpha: 1 + s.Wins[a], Beta: 1 + losses}
}

// Validate checks that the state can safely parameterize posteriors: every
// counter finite and non-negative, and no arm's wins exceeding its pulls.
func (s *State) Validate() error {
	for a := 0; a < NumArms; a++ {
		p, w := s.Pulls[a], s.Wins[a]
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("bandit: arm %s has non-finite counters pulls=%v wins=%v", Arm(a), p, w)
		}
		if p < 0 || w < 0 {
			return fmt.Errorf("bandit: arm %s has negative counters pulls=%v wins=%v", Arm(a), p, w)
		}
		if w > p {
			return fmt.Errorf("bandit: arm %s has wins %v exceeding pulls %v", Arm(a), w, p)
		}
	}
	return nil
}

// Policy names and policy selection strings (recommend.Options.ExplorePolicy,
// recserve's -explore-policy flag).
const (
	PolicyThompson      = "thompson"
	PolicyEpsilonGreedy = "epsilon-greedy"
)

// Policy picks the arm for one slate slot given the current reward state.
// Implementations own a seeded RNG and are deterministic: the pick sequence
// is a pure function of (seed, state sequence). They are NOT safe for
// concurrent use — the serving path serializes picks per system.
type Policy interface {
	// Name returns the policy's selection string (PolicyThompson, ...).
	Name() string
	// Pick samples one arm from the state's posteriors.
	Pick(st *State) Arm
}

// Thompson is Thompson sampling: each pick draws θ_a ~ Beta(α_a, β_a) for
// every arm and plays the argmax, so an arm is chosen with exactly the
// posterior probability that it is the best one — exploration decays
// automatically as posteriors sharpen.
type Thompson struct {
	rng *rand.Rand
}

// NewThompson returns a Thompson-sampling policy with a seeded PCG source.
func NewThompson(seed uint64) *Thompson {
	return &Thompson{rng: rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))}
}

// Name implements Policy.
func (t *Thompson) Name() string { return PolicyThompson }

// Pick implements Policy: sample every arm's posterior, play the argmax.
// Ties break toward the lowest arm index, which keeps the pick a pure
// function of the drawn samples.
//
// hotpath: slate re-ranking samples once per served slot
func (t *Thompson) Pick(st *State) Arm {
	best := ArmMF
	bestSample := math.Inf(-1)
	for a := 0; a < NumArms; a++ {
		p := st.Posterior(Arm(a))
		if s := t.betaSample(p.Alpha, p.Beta); s > bestSample {
			best, bestSample = Arm(a), s
		}
	}
	return best
}

// betaSample draws from Beta(a, b) as Ga/(Ga+Gb) with two Gamma draws.
func (t *Thompson) betaSample(a, b float64) float64 {
	ga := t.gammaSample(a)
	gb := t.gammaSample(b)
	if ga+gb == 0 {
		return 0.5 // both shapes degenerate; split the tie deterministically
	}
	return ga / (ga + gb)
}

// gammaSample draws from Gamma(shape, 1) via Marsaglia–Tsang squeeze
// rejection. Shapes below 1 use the boosting identity
// Gamma(a) = Gamma(a+1)·U^(1/a); validated states always have shape ≥ 1
// (α = 1 + wins, β = 1 + losses), so the boost is defensive only.
func (t *Thompson) gammaSample(shape float64) float64 {
	if shape < 1 {
		u := t.rng.Float64()
		for u == 0 {
			u = t.rng.Float64()
		}
		return t.gammaSample(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := t.rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := t.rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// EpsilonGreedy explores a fixed fraction of slots: with probability epsilon
// the slot's arm is uniform over all arms, otherwise it is the arm with the
// highest posterior mean (ties toward the lowest index).
type EpsilonGreedy struct {
	rng     *rand.Rand
	epsilon float64
}

// NewEpsilonGreedy returns an epsilon-greedy policy with a seeded PCG
// source. Epsilon is clamped to [0, 1]; NaN explores nothing.
func NewEpsilonGreedy(seed uint64, epsilon float64) *EpsilonGreedy {
	switch {
	case !(epsilon >= 0): // also catches NaN
		epsilon = 0
	case epsilon > 1:
		epsilon = 1
	}
	return &EpsilonGreedy{
		rng:     rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03)),
		epsilon: epsilon,
	}
}

// Name implements Policy.
func (e *EpsilonGreedy) Name() string { return PolicyEpsilonGreedy }

// Epsilon returns the exploration fraction in force.
func (e *EpsilonGreedy) Epsilon() float64 { return e.epsilon }

// Pick implements Policy.
//
// hotpath: slate re-ranking samples once per served slot
func (e *EpsilonGreedy) Pick(st *State) Arm {
	if e.rng.Float64() < e.epsilon {
		return Arm(e.rng.IntN(NumArms))
	}
	best := ArmMF
	bestMean := st.Posterior(ArmMF).Mean()
	for a := 1; a < NumArms; a++ {
		if m := st.Posterior(Arm(a)).Mean(); m > bestMean {
			best, bestMean = Arm(a), m
		}
	}
	return best
}
