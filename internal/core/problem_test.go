package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"eefei/internal/mat"
	"eefei/internal/optim"
)

func TestDefaultProblemValid(t *testing.T) {
	if err := DefaultProblem().Validate(); err != nil {
		t.Fatalf("default problem invalid: %v", err)
	}
}

func TestProblemValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"zero epsilon", func(p *Problem) { p.Epsilon = 0 }},
		{"NaN epsilon", func(p *Problem) { p.Epsilon = math.NaN() }},
		{"infinite epsilon", func(p *Problem) { p.Epsilon = math.Inf(1) }},
		{"infinite energy", func(p *Problem) { p.Energy.B1 = math.Inf(1) }},
		{"zero servers", func(p *Problem) { p.Servers = 0 }},
		{"bad bound", func(p *Problem) { p.Bound.A0 = 0 }},
		{"bad energy", func(p *Problem) { p.Energy.B0 = 0 }},
		{"globally infeasible", func(p *Problem) { p.Bound.A1 = 1e9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultProblem()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestTStarMatchesEquation11(t *testing.T) {
	p := DefaultProblem()
	k, e := 10.0, 40.0
	got, err := p.TStar(k, e)
	if err != nil {
		t.Fatalf("TStar: %v", err)
	}
	b := p.Bound
	want := b.A0 * k / ((p.Epsilon*k - b.A1 - b.A2*k*(e-1)) * e)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("TStar = %v, want %v", got, want)
	}
	// Calibration check: at the paper's (K=10, E=40) the theory should land
	// near the ≈90 rounds Fig. 4d reports for 0.9 accuracy.
	if got < 60 || got > 140 {
		t.Errorf("TStar(10,40) = %v, want in the Fig.-4d neighbourhood [60,140]", got)
	}
}

func TestTStarSaturatesBound(t *testing.T) {
	// Substituting T* back into the bound must give exactly ε.
	p := DefaultProblem()
	for _, kc := range []float64{1, 5, 20} {
		for _, ec := range []float64{1, 10, 100} {
			tStar, err := p.TStar(kc, ec)
			if err != nil {
				continue // infeasible corner
			}
			gap := p.Bound.Gap(kc, ec, tStar)
			if math.Abs(gap-p.Epsilon)/p.Epsilon > 1e-9 {
				t.Errorf("Gap(K=%v,E=%v,T*) = %v, want ε=%v", kc, ec, gap, p.Epsilon)
			}
		}
	}
}

func TestTStarInfeasible(t *testing.T) {
	p := DefaultProblem()
	// Slack at huge E is negative.
	if _, err := p.TStar(10, 1e9); !errors.Is(err, ErrInfeasible) {
		t.Errorf("huge E = %v, want ErrInfeasible", err)
	}
	if !math.IsInf(p.Objective(10, 1e9), 1) {
		t.Error("infeasible objective must be +Inf")
	}
}

func TestFeasibleRegion(t *testing.T) {
	p := DefaultProblem()
	if !p.Feasible(10, 40) {
		t.Error("(10,40) must be feasible")
	}
	if p.Feasible(0.5, 10) {
		t.Error("K below 1 must be infeasible")
	}
	if p.Feasible(25, 10) {
		t.Error("K above N must be infeasible")
	}
	if p.Feasible(10, 0.5) {
		t.Error("E below 1 must be infeasible")
	}
	eMax := p.EMax(10)
	if p.Feasible(10, eMax+1) {
		t.Error("E above EMax must be infeasible")
	}
	if !p.Feasible(10, eMax-1) {
		t.Error("E just below EMax must be feasible")
	}
}

func TestEMaxAndKMinConsistency(t *testing.T) {
	p := DefaultProblem()
	k := 7.0
	eMax := p.EMax(k)
	// slack(k, EMax) must be ~0 from above.
	if s := p.slack(k, eMax); math.Abs(s) > 1e-9 {
		t.Errorf("slack at EMax = %v, want 0", s)
	}
	e := 50.0
	kMin := p.KMin(e)
	if s := p.slack(kMin, e); math.Abs(s) > 1e-12 {
		t.Errorf("slack at KMin = %v, want 0", s)
	}
	// A2 = 0 → unbounded E.
	p2 := p
	p2.Bound.A2 = 0
	if !math.IsInf(p2.EMax(3), 1) {
		t.Error("EMax with A2=0 must be +Inf")
	}
	// Denominator non-positive → no feasible K.
	if !math.IsInf(p.KMin(1e9), 1) {
		t.Error("KMin at huge E must be +Inf")
	}
}

func TestLemma1ConvexInK(t *testing.T) {
	// Numeric second derivative in K must be positive across the feasible
	// slice (Lemma 1).
	p := DefaultProblem()
	for _, e := range []float64{1, 10, 40, 100} {
		for _, k := range []float64{1.5, 3, 7, 15, 19} {
			if !p.Feasible(k, e) {
				continue
			}
			if d2 := p.SecondDerivativeK(k, e); d2 <= 0 {
				t.Errorf("∂²Ê/∂K² at (K=%v,E=%v) = %v, want > 0", k, e, d2)
			}
		}
	}
}

func TestLemma2ConvexInE(t *testing.T) {
	p := DefaultProblem()
	for _, k := range []float64{1, 5, 10, 20} {
		eMax := p.EMax(k)
		for _, frac := range []float64{0.05, 0.2, 0.5, 0.8} {
			e := 1 + frac*(eMax-1)
			if !p.Feasible(k, e) {
				continue
			}
			if d2 := p.SecondDerivativeE(k, e); d2 <= 0 {
				t.Errorf("∂²Ê/∂E² at (K=%v,E=%v) = %v, want > 0", k, e, d2)
			}
		}
	}
}

func TestOptimalKMatchesEquation15(t *testing.T) {
	p := DefaultProblem()
	// Make the interior solution land inside [1, N] by inflating A1.
	p.Bound.A1 = 0.3
	e := 10.0
	kStar, err := p.OptimalK(e)
	if err != nil {
		t.Fatalf("OptimalK: %v", err)
	}
	want := 2 * p.Bound.A1 / (p.Epsilon - p.Bound.A2*(e-1))
	if want >= 1 && want <= float64(p.Servers) {
		if math.Abs(kStar-want)/want > 1e-12 {
			t.Errorf("K* = %v, want Eq.15 value %v", kStar, want)
		}
	}
	// Cross-check against golden-section on the K-slice.
	lo := math.Max(1, p.KMin(e)*1.000001)
	numeric, err := optim.GoldenSection(func(k float64) float64 { return p.Objective(k, e) },
		lo, float64(p.Servers), 1e-10)
	if err != nil {
		t.Fatalf("GoldenSection: %v", err)
	}
	if math.Abs(kStar-numeric) > 1e-4 {
		t.Errorf("closed-form K* = %v, numeric %v", kStar, numeric)
	}
}

func TestOptimalKClampsToOne(t *testing.T) {
	// Default calibration has tiny A1 ⇒ K* = 1, the paper's Fig.-5 result.
	p := DefaultProblem()
	kStar, err := p.OptimalK(40)
	if err != nil {
		t.Fatalf("OptimalK: %v", err)
	}
	if kStar != 1 {
		t.Errorf("K*(E=40) = %v, want 1 (paper Fig. 5)", kStar)
	}
}

func TestOptimalKClampsToN(t *testing.T) {
	p := DefaultProblem()
	p.Bound.A1 = 10 * p.Epsilon // interior K* far above N
	kStar, err := p.OptimalK(1)
	if err != nil {
		t.Fatalf("OptimalK: %v", err)
	}
	if kStar != float64(p.Servers) {
		t.Errorf("K* = %v, want clamp at N=%d", kStar, p.Servers)
	}
}

func TestOptimalKInfeasible(t *testing.T) {
	p := DefaultProblem()
	if _, err := p.OptimalK(1e9); !errors.Is(err, ErrInfeasible) {
		t.Errorf("huge E = %v, want ErrInfeasible", err)
	}
}

func TestOptimalEMatchesNumericMinimum(t *testing.T) {
	// The corrected closed form must agree with golden-section on the
	// E-slice for a spread of K (this is the check that catches the paper's
	// Eq.-17 typo).
	p := DefaultProblem()
	for _, k := range []float64{1, 2, 5, 10, 20} {
		eStar, err := p.OptimalE(k)
		if err != nil {
			t.Fatalf("OptimalE(%v): %v", k, err)
		}
		hi := p.EMax(k) * (1 - 1e-9)
		numeric, err := optim.GoldenSection(func(e float64) float64 { return p.Objective(k, e) },
			1, hi, 1e-10)
		if err != nil {
			t.Fatalf("GoldenSection: %v", err)
		}
		if math.Abs(eStar-numeric) > 1e-3*(1+numeric) {
			t.Errorf("K=%v: closed-form E* = %v, numeric %v", k, eStar, numeric)
		}
	}
}

func TestOptimalECalibration(t *testing.T) {
	// At K=1 the calibrated default problem should place E* in the paper's
	// Fig.-6 region (tens of epochs).
	p := DefaultProblem()
	eStar, err := p.OptimalE(1)
	if err != nil {
		t.Fatalf("OptimalE: %v", err)
	}
	if eStar < 20 || eStar > 80 {
		t.Errorf("E*(K=1) = %v, want in [20,80]", eStar)
	}
}

func TestOptimalEInfeasibleK(t *testing.T) {
	p := DefaultProblem()
	p.Bound.A1 = 1 // εK − A1 ≤ 0 for all K ≤ N=20 at ε=0.08 ⇒ need K > 12.5
	if _, err := p.OptimalE(10); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible K = %v, want ErrInfeasible", err)
	}
	if _, err := p.OptimalE(15); err != nil {
		t.Errorf("K=15 should be feasible: %v", err)
	}
}

func TestOptimalEUnboundedWhenA2Zero(t *testing.T) {
	p := DefaultProblem()
	p.Bound.A2 = 0
	eStar, err := p.OptimalE(5)
	if err != nil {
		t.Fatalf("OptimalE: %v", err)
	}
	if !math.IsInf(eStar, 1) {
		t.Errorf("E* with A2=0 = %v, want +Inf", eStar)
	}
}

func TestEnergyForRounds(t *testing.T) {
	p := DefaultProblem()
	got := p.EnergyForRounds(10, 40, 90)
	want := 90.0 * 10 * p.Energy.PerRound(40)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("EnergyForRounds = %v, want %v", got, want)
	}
}

// Property: on random feasible problems, the closed-form partial minimizers
// never lose to a golden-section search of the same slice.
func TestClosedFormsOptimalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		p := Problem{
			Bound: BoundConstants{
				A0: 10 + 500*rng.Float64(),
				A1: 0.001 + 0.2*rng.Float64(),
				A2: 1e-5 + 1e-3*rng.Float64(),
			},
			Energy: EnergyParams{
				B0: 0.01 + rng.Float64(),
				B1: 0.01 + rng.Float64(),
			},
			Epsilon: 0.05 + 0.3*rng.Float64(),
			Servers: 5 + rng.Intn(30),
		}
		if p.Validate() != nil {
			return true // skip infeasible draws
		}
		e := 1 + rng.Float64()*math.Min(50, math.Max(1, p.EMax(float64(p.Servers))-1))
		kStar, err := p.OptimalK(e)
		if err != nil {
			return true
		}
		lo := math.Max(1, p.KMin(e)*1.000001)
		kNum, err := optim.GoldenSection(func(k float64) float64 { return p.Objective(k, e) },
			lo, float64(p.Servers), 1e-9)
		if err != nil {
			return true
		}
		// Closed form must be at least as good as the numeric minimizer.
		return p.Objective(kStar, e) <= p.Objective(kNum, e)*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
