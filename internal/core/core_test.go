package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/vecmath"
)

func testParams() Params {
	p := DefaultParams()
	p.Factors = 8 // keep unit tests fast
	return p
}

func newTestModel(t *testing.T, rule UpdateRule) *Model {
	t.Helper()
	p := testParams()
	p.Rule = rule
	m, err := NewModel("t", kvstore.NewLocal(8), p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func click(u, v string) feedback.Action {
	return feedback.Action{UserID: u, VideoID: v, Type: feedback.Click, Timestamp: time.Unix(1000, 0)}
}

func impress(u, v string) feedback.Action {
	return feedback.Action{UserID: u, VideoID: v, Type: feedback.Impress, Timestamp: time.Unix(1000, 0)}
}

func fullWatch(u, v string) feedback.Action {
	return feedback.Action{
		UserID: u, VideoID: v, Type: feedback.PlayTime,
		ViewTime: 100 * time.Second, VideoLength: 100 * time.Second,
		Timestamp: time.Unix(1000, 0),
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRejectsBadValues(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Factors = 0 },
		func(p *Params) { p.Lambda = -1 },
		func(p *Params) { p.Eta0 = 0 },
		func(p *Params) { p.Alpha = -0.1 },
		func(p *Params) { p.InitScale = 0 },
		func(p *Params) { p.Rule = 99 },
		func(p *Params) { p.Weights.MinViewRate = -1 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestLearningRateEquation8 pins η_ui = η0 + α·w_ui for CombineModel and the
// fixed rate for the ablations.
func TestLearningRateEquation8(t *testing.T) {
	p := testParams()
	p.Eta0, p.Alpha = 0.01, 0.005
	p.Rule = RuleCombine
	if got, want := p.LearningRate(4), 0.01+0.005*4; math.Abs(got-want) > 1e-15 {
		t.Errorf("combine rate = %v, want %v", got, want)
	}
	for _, rule := range []UpdateRule{RuleBinary, RuleConfidence} {
		p.Rule = rule
		if got := p.LearningRate(4); got != 0.01 {
			t.Errorf("%v rate = %v, want fixed 0.01", rule, got)
		}
	}
}

func TestTrainingRatingPerRule(t *testing.T) {
	p := testParams()
	p.Rule = RuleBinary
	if got := p.TrainingRating(1, 2.5); got != 1 {
		t.Errorf("binary target = %v, want 1", got)
	}
	p.Rule = RuleCombine
	if got := p.TrainingRating(1, 2.5); got != 1 {
		t.Errorf("combine target = %v, want 1", got)
	}
	p.Rule = RuleConfidence
	if got := p.TrainingRating(1, 2.5); got != 2.5 {
		t.Errorf("confidence target = %v, want 2.5", got)
	}
}

func TestRuleString(t *testing.T) {
	for rule, want := range map[UpdateRule]string{
		RuleCombine:    "CombineModel",
		RuleBinary:     "BinaryModel",
		RuleConfidence: "ConfModel",
	} {
		if rule.String() != want {
			t.Errorf("String(%d) = %q, want %q", rule, rule, want)
		}
	}
}

// TestStepMatchesAlgorithm1 verifies one step against a hand-computed
// reference of Algorithm 1 lines 9-14.
func TestStepMatchesAlgorithm1(t *testing.T) {
	p := testParams()
	p.Factors = 2
	p.Eta0, p.Alpha, p.Lambda = 0.1, 0.05, 0.02
	s := State{
		UserVec: []float64{0.5, -0.2}, UserBias: 0.1,
		ItemVec: []float64{0.3, 0.4}, ItemBias: -0.05,
	}
	const mu, rating, weight = 0.6, 1.0, 2.0
	eta := 0.1 + 0.05*weight
	e := rating - mu - s.UserBias - s.ItemBias - (0.5*0.3 + -0.2*0.4)
	wantUB := s.UserBias + eta*(e-0.02*s.UserBias)
	wantIB := s.ItemBias + eta*(e-0.02*s.ItemBias)
	wantUV := []float64{
		s.UserVec[0] + eta*(e*s.ItemVec[0]-0.02*s.UserVec[0]),
		s.UserVec[1] + eta*(e*s.ItemVec[1]-0.02*s.UserVec[1]),
	}
	wantIV := []float64{
		s.ItemVec[0] + eta*(e*s.UserVec[0]-0.02*s.ItemVec[0]),
		s.ItemVec[1] + eta*(e*s.UserVec[1]-0.02*s.ItemVec[1]),
	}
	got := p.Step(s, mu, rating, weight)
	if math.Abs(got.UserBias-wantUB) > 1e-12 || math.Abs(got.ItemBias-wantIB) > 1e-12 {
		t.Errorf("biases = %v,%v want %v,%v", got.UserBias, got.ItemBias, wantUB, wantIB)
	}
	for i := range wantUV {
		if math.Abs(got.UserVec[i]-wantUV[i]) > 1e-12 {
			t.Errorf("user vec[%d] = %v, want %v", i, got.UserVec[i], wantUV[i])
		}
		if math.Abs(got.ItemVec[i]-wantIV[i]) > 1e-12 {
			t.Errorf("item vec[%d] = %v, want %v", i, got.ItemVec[i], wantIV[i])
		}
	}
}

func TestStepIsPure(t *testing.T) {
	p := testParams()
	s := State{
		UserVec: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, UserBias: 0.5,
		ItemVec: []float64{0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}, ItemBias: -0.5,
	}
	uvBefore := vecmath.Clone(s.UserVec)
	ivBefore := vecmath.Clone(s.ItemVec)
	p.Step(s, 0.5, 1, 2)
	for i := range uvBefore {
		if s.UserVec[i] != uvBefore[i] || s.ItemVec[i] != ivBefore[i] {
			t.Fatal("Step mutated its input state")
		}
	}
}

// TestStepReducesError: repeated steps on the same pair drive the prediction
// toward the target.
func TestStepReducesError(t *testing.T) {
	p := testParams()
	s := State{
		UserVec: p.initVector("u", "u1"),
		ItemVec: p.initVector("i", "v1"),
	}
	const mu, rating, weight = 0.0, 1.0, 2.5
	for i := 0; i < 200; i++ {
		s = p.Step(s, mu, rating, weight)
	}
	if got := PredictState(s, mu); math.Abs(rating-got) > 0.1 {
		t.Errorf("after 200 steps prediction = %v, want near %v", got, rating)
	}
}

// TestStepHigherConfidenceMovesMore: with RuleCombine, one step with a
// high-confidence action must change the prediction more than one with low
// confidence — the core claim of the adjustable updating strategy.
func TestStepHigherConfidenceMovesMore(t *testing.T) {
	p := testParams()
	p.Rule = RuleCombine
	base := State{
		UserVec: p.initVector("u", "u1"),
		ItemVec: p.initVector("i", "v1"),
	}
	before := PredictState(base, 0)
	low := PredictState(p.Step(base, 0, 1, 1.0), 0)
	high := PredictState(p.Step(base, 0, 1, 4.0), 0)
	if (high - before) <= (low - before) {
		t.Errorf("high-confidence step moved %v, low moved %v; want high > low",
			high-before, low-before)
	}
}

func TestInitVectorDeterministicAndBounded(t *testing.T) {
	p := testParams()
	a := p.initVector("u", "user-1")
	b := p.initVector("u", "user-1")
	c := p.initVector("u", "user-2")
	d := p.initVector("i", "user-1") // same id, different kind
	if len(a) != p.Factors {
		t.Fatalf("len = %d, want %d", len(a), p.Factors)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("initVector not deterministic")
		}
		if a[i] != c[i] || a[i] != d[i] {
			same = false
		}
	}
	if same {
		t.Error("different ids/kinds produced identical vectors")
	}
	bound := p.InitScale / math.Sqrt(float64(p.Factors))
	for i, v := range a {
		if math.Abs(v) > bound {
			t.Errorf("component %d = %v exceeds bound %v", i, v, bound)
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	store := kvstore.NewLocal(1)
	if _, err := NewModel("", store, testParams()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewModel("m", nil, testParams()); err == nil {
		t.Error("nil store accepted")
	}
	bad := testParams()
	bad.Factors = 0
	if _, err := NewModel("m", store, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestProcessActionSkipsImpressions(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	updated, err := m.ProcessAction(context.Background(), impress("u1", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Error("impression updated the model (Alg. 1 line 2 violated)")
	}
	if _, _, known, _ := m.UserVector(context.Background(), "u1"); known {
		t.Error("impression created persistent user state")
	}
	snap := m.Stats()
	if snap.Received.Load() != 1 || snap.Skipped.Load() != 1 || snap.Trained.Load() != 0 {
		t.Errorf("stats = received %d skipped %d trained %d",
			snap.Received.Load(), snap.Skipped.Load(), snap.Trained.Load())
	}
}

func TestProcessActionTrainsOnPositive(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	updated, err := m.ProcessAction(context.Background(), click("u1", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("click did not update the model")
	}
	if _, _, known, _ := m.UserVector(context.Background(), "u1"); !known {
		t.Error("trained user not persisted")
	}
	if _, _, known, _ := m.ItemVector(context.Background(), "v1"); !known {
		t.Error("trained item not persisted")
	}
	if m.Stats().NewUsers.Load() != 1 || m.Stats().NewItems.Load() != 1 {
		t.Errorf("cold-start counters = %d users, %d items, want 1,1",
			m.Stats().NewUsers.Load(), m.Stats().NewItems.Load())
	}
	// Second action on the same pair is not a cold start.
	m.ProcessAction(context.Background(), click("u1", "v1"))
	if m.Stats().NewUsers.Load() != 1 {
		t.Error("existing user counted as new")
	}
}

// TestTrainingRaisesPreference: the end-to-end property of Algorithm 1 —
// repeatedly interacting with a video raises its predicted preference above
// an untouched one.
func TestTrainingRaisesPreference(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	// A realistic stream mixes positives with impressions; the impressions
	// keep the global mean below 1 so the positive updates have signal to
	// push against (with positives only, every rating is 1 and μ=1 makes
	// the model trivially converged).
	for i := 0; i < 50; i++ {
		if _, err := m.ProcessAction(context.Background(), fullWatch("u1", "liked")); err != nil {
			t.Fatal(err)
		}
		m.ProcessAction(context.Background(), impress("u1", fmt.Sprintf("shown-%d", i)))
		m.ProcessAction(context.Background(), impress("u1", "untouched"))
	}
	liked, err := m.Predict(context.Background(), "u1", "liked")
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Predict(context.Background(), "u1", "untouched")
	if err != nil {
		t.Fatal(err)
	}
	if liked <= other {
		t.Errorf("Predict(liked) = %v not above Predict(untouched) = %v", liked, other)
	}
}

func TestGlobalMeanTracksImpressions(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	m.ProcessAction(context.Background(), click("u1", "v1"))   // rating 1
	m.ProcessAction(context.Background(), impress("u1", "v2")) // rating 0
	m.ProcessAction(context.Background(), impress("u1", "v3")) // rating 0
	mu, err := m.GlobalMean(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-1.0/3.0) > 1e-12 {
		t.Errorf("global mean = %v, want 1/3", mu)
	}
}

func TestGlobalMeanDisabled(t *testing.T) {
	p := testParams()
	p.TrackGlobalMean = false
	m, _ := NewModel("t", kvstore.NewLocal(1), p)
	m.ProcessAction(context.Background(), click("u1", "v1"))
	if mu, _ := m.GlobalMean(context.Background()); mu != 0 {
		t.Errorf("global mean with tracking off = %v, want 0", mu)
	}
}

// TestGlobalMeanZeroCountRecord: the global-mean record is store content,
// so one with a count of 0 can arrive from outside the model (a restored
// snapshot, another writer). μ must read 0 from it, not ±Inf or NaN.
func TestGlobalMeanZeroCountRecord(t *testing.T) {
	for _, sum := range []float64{2.5, -2.5, 0} {
		store := kvstore.NewLocal(1)
		m, err := NewModel("t", store, testParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Set(context.Background(), m.keyMean, kvstore.EncodeFloats([]float64{sum, 0})); err != nil {
			t.Fatal(err)
		}
		if mu, err := m.GlobalMean(context.Background()); err != nil || mu != 0 {
			t.Errorf("GlobalMean over (%v, 0) = %v, %v; want 0, nil", sum, mu, err)
		}
	}
}

// TestInitVectorDegenerateFactors: NewModel rejects Factors <= 0 through
// Params.Validate, so no model reaches initVector with them; the guard
// still returns an empty vector instead of panicking in make or scaling by
// 1/√0.
func TestInitVectorDegenerateFactors(t *testing.T) {
	for _, f := range []int{0, -1} {
		p := testParams()
		p.Factors = f
		if v := p.initVector("u", "x"); len(v) != 0 {
			t.Errorf("initVector with Factors=%d = %v, want empty", f, v)
		}
	}
}

func TestModelPersistsAcrossReattach(t *testing.T) {
	store := kvstore.NewLocal(4)
	p := testParams()
	m1, _ := NewModel("shared", store, p)
	for i := 0; i < 20; i++ {
		m1.ProcessAction(context.Background(), fullWatch("u1", "v1"))
	}
	want, _ := m1.Predict(context.Background(), "u1", "v1")

	m2, _ := NewModel("shared", store, p)
	got, err := m2.Predict(context.Background(), "u1", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("reattached model predicts %v, want %v", got, want)
	}
}

func TestModelsAreNamespaced(t *testing.T) {
	store := kvstore.NewLocal(4)
	p := testParams()
	a, _ := NewModel("a", store, p)
	b, _ := NewModel("b", store, p)
	for i := 0; i < 10; i++ {
		a.ProcessAction(context.Background(), fullWatch("u1", "v1"))
	}
	if _, _, known, _ := b.UserVector(context.Background(), "u1"); known {
		t.Error("model b sees model a's user state")
	}
}

func TestScoreCandidatesMatchesPredict(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	for i := 0; i < 10; i++ {
		m.ProcessAction(context.Background(), fullWatch("u1", "v1"))
		m.ProcessAction(context.Background(), click("u1", "v2"))
	}
	items := []string{"v1", "v2", "never-seen"}
	scores, err := m.ScoreCandidates(context.Background(), "u1", items)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range items {
		want, _ := m.Predict(context.Background(), "u1", id)
		if math.Abs(scores[i]-want) > 1e-12 {
			t.Errorf("ScoreCandidates[%s] = %v, Predict = %v", id, scores[i], want)
		}
	}
}

// TestCombineConvergesFasterThanBinary: with equal η0, the adjustable rule
// reaches a given prediction level on high-confidence actions in fewer steps.
func TestCombineConvergesFasterThanBinary(t *testing.T) {
	run := func(rule UpdateRule) float64 {
		p := testParams()
		p.Rule = rule
		m, _ := NewModel("t", kvstore.NewLocal(4), p)
		for i := 0; i < 20; i++ {
			m.ProcessAction(context.Background(), fullWatch("u1", "v1"))
		}
		pred, _ := m.Predict(context.Background(), "u1", "v1")
		return pred
	}
	if combine, binary := run(RuleCombine), run(RuleBinary); combine <= binary {
		t.Errorf("after equal steps combine pred %v <= binary pred %v", combine, binary)
	}
}

func TestModelAccessors(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	if m.Name() != "t" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Params().Factors != 8 {
		t.Errorf("Params.Factors = %d", m.Params().Factors)
	}
}

// TestModelSurfacesStoreErrors drives every store-touching path against a
// fully failing store: each must return the error, never panic or fabricate
// state.
func TestModelSurfacesStoreErrors(t *testing.T) {
	faulty := kvstore.NewFaulty(kvstore.NewLocal(4), 3)
	m, err := NewModel("t", faulty, testParams())
	if err != nil {
		t.Fatal(err)
	}
	m.ProcessAction(context.Background(), click("u1", "v1")) // healthy warmup
	faulty.SetFailRate(1)

	if _, err := m.ProcessAction(context.Background(), click("u1", "v1")); err == nil {
		t.Error("ProcessAction swallowed store failure")
	}
	if _, err := m.Predict(context.Background(), "u1", "v1"); err == nil {
		t.Error("Predict swallowed store failure")
	}
	if _, _, _, err := m.UserVector(context.Background(), "u1"); err == nil {
		t.Error("UserVector swallowed store failure")
	}
	if _, _, _, err := m.ItemVector(context.Background(), "v1"); err == nil {
		t.Error("ItemVector swallowed store failure")
	}
	if _, _, _, err := m.Load(context.Background(), "u1", "v1"); err == nil {
		t.Error("Load swallowed store failure")
	}
	if err := m.StoreUser(context.Background(), "u1", make([]float64, 8), 0); err == nil {
		t.Error("StoreUser swallowed store failure")
	}
	if err := m.StoreItem(context.Background(), "v1", make([]float64, 8), 0); err == nil {
		t.Error("StoreItem swallowed store failure")
	}
	if _, err := m.ScoreCandidates(context.Background(), "u1", []string{"v1"}); err == nil {
		t.Error("ScoreCandidates swallowed store failure")
	}
	if _, err := m.GlobalMean(context.Background()); err == nil {
		t.Error("GlobalMean swallowed store failure")
	}
}

// TestModelRejectsCorruptStoreRecords: garbage bytes under a model key must
// error, not decode into nonsense.
func TestModelRejectsCorruptStoreRecords(t *testing.T) {
	kv := kvstore.NewLocal(4)
	m, _ := NewModel("t", kv, testParams())
	m.ProcessAction(context.Background(), click("u1", "v1"))
	kv.Set(context.Background(), "t.uv:u1", []byte{1, 2, 3}) // not a multiple of 8
	if _, _, _, err := m.UserVector(context.Background(), "u1"); err == nil {
		t.Error("corrupt user vector decoded without error")
	}
	kv.Set(context.Background(), "t.ib:v1", []byte{1}) // not 8 bytes
	if _, _, _, err := m.ItemVector(context.Background(), "v1"); err == nil {
		t.Error("corrupt item bias decoded without error")
	}
}

// TestLoadStoreStateRoundTrip: the ComputeMF/MFStorage split (load on one
// worker, store on another) must reproduce state exactly.
func TestLoadStoreStateRoundTrip(t *testing.T) {
	m := newTestModel(t, RuleCombine)
	for i := 0; i < 10; i++ {
		m.ProcessAction(context.Background(), fullWatch("u1", "v1"))
	}
	s, newUser, newItem, err := m.Load(context.Background(), "u1", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if newUser || newItem {
		t.Fatal("trained entities reported as new")
	}
	// Store under different ids, reload, compare exactly.
	if err := m.StoreState(context.Background(), "u2", "v2", s); err != nil {
		t.Fatal(err)
	}
	s2, newUser, newItem, err := m.Load(context.Background(), "u2", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if newUser || newItem {
		t.Fatal("copied entities reported as new")
	}
	if s2.UserBias != s.UserBias || s2.ItemBias != s.ItemBias {
		t.Errorf("biases differ after round trip")
	}
	for i := range s.UserVec {
		if s2.UserVec[i] != s.UserVec[i] || s2.ItemVec[i] != s.ItemVec[i] {
			t.Fatal("vectors differ after round trip")
		}
	}
	// PredictState over loaded state must equal Predict.
	mu, _ := m.GlobalMean(context.Background())
	if got, want := PredictState(s2, mu), mustPredict(t, m, "u2", "v2"); math.Abs(got-want) > 1e-12 {
		t.Errorf("PredictState = %v, Predict = %v", got, want)
	}
}

func mustPredict(t *testing.T, m *Model, u, v string) float64 {
	t.Helper()
	p, err := m.Predict(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDivergenceGuard: a hostile learning rate must not write NaN into the
// store; the update is dropped and counted instead.
func TestDivergenceGuard(t *testing.T) {
	p := testParams()
	p.Eta0 = 1e300 // guaranteed overflow within a few steps
	p.Alpha = 0
	m, err := NewModel("t", kvstore.NewLocal(4), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.ProcessAction(context.Background(), fullWatch("u1", "v1")); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Diverged.Load() == 0 {
		t.Fatal("no diverged updates counted under an overflowing rate")
	}
	vec, bias, _, err := m.UserVector(context.Background(), "u1")
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.IsFinite(vec) || math.IsNaN(bias) || math.IsInf(bias, 0) {
		t.Error("non-finite state reached the store despite the guard")
	}
	if pred, _ := m.Predict(context.Background(), "u1", "v1"); math.IsNaN(pred) || math.IsInf(pred, 0) {
		t.Errorf("prediction non-finite: %v", pred)
	}
}

func TestStateFinite(t *testing.T) {
	good := State{UserVec: []float64{1}, ItemVec: []float64{2}}
	if !StateFinite(good) {
		t.Error("finite state reported non-finite")
	}
	for _, bad := range []State{
		{UserVec: []float64{math.NaN()}, ItemVec: []float64{0}},
		{UserVec: []float64{0}, ItemVec: []float64{math.Inf(1)}},
		{UserVec: []float64{0}, ItemVec: []float64{0}, UserBias: math.NaN()},
		{UserVec: []float64{0}, ItemVec: []float64{0}, ItemBias: math.Inf(-1)},
	} {
		if StateFinite(bad) {
			t.Errorf("non-finite state %v reported finite", bad)
		}
	}
}

// TestStateStaysFinite property-checks that arbitrary bounded action
// sequences never blow the state up to NaN/Inf under default rates.
func TestStateStaysFinite(t *testing.T) {
	f := func(actions []uint8) bool {
		m := newTestModel(t, RuleCombine)
		types := []feedback.ActionType{feedback.Click, feedback.Play, feedback.Comment, feedback.Share}
		for _, raw := range actions {
			a := feedback.Action{
				UserID:  fmt.Sprintf("u%d", raw%4),
				VideoID: fmt.Sprintf("v%d", (raw>>2)%8),
				Type:    types[(raw>>5)%4],
			}
			if _, err := m.ProcessAction(context.Background(), a); err != nil {
				return false
			}
		}
		vec, bias, _, err := m.UserVector(context.Background(), "u0")
		if err != nil {
			return false
		}
		return vecmath.IsFinite(vec) && !math.IsNaN(bias)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
