package core

import (
	"fmt"
	"math"
)

// Problem is the energy-minimization problem of Eq. (13):
//
//	min_{K,E}  Ê(K,E) = T*(K,E) · K · (B0·E + B1)
//	s.t.       εK − A1 − A2·K·(E−1) > 0,  1 ≤ K ≤ N,  E ≥ 1
//
// where T* is the tight-constraint round count of Eq. (11).
type Problem struct {
	// Bound are the convergence-bound constants (A0, A1, A2).
	Bound BoundConstants
	// Energy are the per-round energy constants (B0, B1).
	Energy EnergyParams
	// Epsilon is the target optimality gap ε of constraint (3b).
	Epsilon float64
	// Servers is N, the total number of edge servers.
	Servers int
}

// DefaultProblem is the calibrated prototype-scale problem: 20 edge servers,
// target gap 0.08.
func DefaultProblem() Problem {
	return Problem{
		Bound:   DefaultBoundConstants(),
		Energy:  DefaultEnergyParams(),
		Epsilon: 0.08,
		Servers: 20,
	}
}

// Validate checks all constants and that the problem is feasible at all
// (some (K,E) in the box satisfies Eq. 13c — K=N, E=1 is the easiest point).
func (p Problem) Validate() error {
	if err := p.Bound.Validate(); err != nil {
		return err
	}
	if err := p.Energy.Validate(); err != nil {
		return err
	}
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 1) {
		return fmt.Errorf("epsilon %v: %w", p.Epsilon, ErrParams)
	}
	if p.Servers < 1 {
		return fmt.Errorf("servers %d: %w", p.Servers, ErrParams)
	}
	if !p.Feasible(float64(p.Servers), 1) {
		return fmt.Errorf("even (K=N=%d, E=1) violates εK − A1 > 0: %w", p.Servers, ErrInfeasible)
	}
	return nil
}

// slack returns εK − A1 − A2·K·(E−1), the left side of constraint (13c).
func (p Problem) slack(k, e float64) float64 {
	return p.Epsilon*k - p.Bound.A1 - p.Bound.A2*k*(e-1)
}

// Feasible reports whether (K, E) satisfies the convergence constraint and
// the box bounds.
func (p Problem) Feasible(k, e float64) bool {
	return k >= 1 && k <= float64(p.Servers) && e >= 1 && p.slack(k, e) > 0
}

// TStar returns T*(K,E) = A0·K / ((εK − A1 − A2·K(E−1))·E), the continuous
// number of global rounds that makes the bound exactly ε (Eq. 11). It
// returns ErrInfeasible when the constraint slack is non-positive.
func (p Problem) TStar(k, e float64) (float64, error) {
	s := p.slack(k, e)
	if s <= 0 {
		return 0, fmt.Errorf("T*(%v,%v): slack %v: %w", k, e, s, ErrInfeasible)
	}
	return p.Bound.A0 * k / (s * e), nil
}

// Objective evaluates Ê(K,E) of Eq. (12): the bound-tight total energy.
// Infeasible points evaluate to +Inf so that minimizers avoid them.
func (p Problem) Objective(k, e float64) float64 {
	t, err := p.TStar(k, e)
	if err != nil {
		return math.Inf(1)
	}
	return t * k * p.Energy.PerRound(e)
}

// EnergyForRounds returns the energy of running exactly t rounds at (K, E):
// t·K·(B0E + B1). Unlike Objective it takes the round count as given —
// used when comparing against empirically measured T.
func (p Problem) EnergyForRounds(k, e, t float64) float64 {
	return t * k * p.Energy.PerRound(e)
}

// EMax returns the exclusive upper bound of the feasible E range at fixed K
// (from rearranging Eq. 13c): E < (εK − A1 + A2·K)/(A2·K). For A2 = 0 the
// range is unbounded and +Inf is returned.
func (p Problem) EMax(k float64) float64 {
	if p.Bound.A2 == 0 {
		return math.Inf(1)
	}
	return (p.Epsilon*k - p.Bound.A1 + p.Bound.A2*k) / (p.Bound.A2 * k)
}

// KMin returns the exclusive lower bound of the feasible K range at fixed E:
// K > A1 / (ε − A2(E−1)). When the denominator is non-positive no K is
// feasible and +Inf is returned.
func (p Problem) KMin(e float64) float64 {
	den := p.Epsilon - p.Bound.A2*(e-1)
	if den <= 0 {
		return math.Inf(1)
	}
	return p.Bound.A1 / den
}

// OptimalK returns the continuous minimizer of Ê(·, E) for fixed E
// (Eq. 15): K* = 2A1/(ε − A2(E−1)), clamped into the feasible interval
// (KMin(E), N]. It returns ErrInfeasible when no feasible K exists.
func (p Problem) OptimalK(e float64) (float64, error) {
	den := p.Epsilon - p.Bound.A2*(e-1)
	if den <= 0 {
		return 0, fmt.Errorf("K*(E=%v): ε − A2(E−1) = %v: %w", e, den, ErrInfeasible)
	}
	kStar := 2 * p.Bound.A1 / den
	// Clamp to the box. The unclamped stationary point 2A1/den always sits
	// strictly above the feasibility threshold A1/den, so clamping to 1 is
	// safe whenever 1 itself is feasible.
	if kStar < 1 {
		kStar = 1
	}
	if kStar > float64(p.Servers) {
		kStar = float64(p.Servers)
	}
	if !p.Feasible(kStar, e) {
		return 0, fmt.Errorf("K*(E=%v) clamped to %v is infeasible: %w", e, kStar, ErrInfeasible)
	}
	return kStar, nil
}

// OptimalE returns the continuous minimizer of Ê(K, ·) for fixed K. The
// published Eq. (17) is garbled; we use the re-derived stationary condition
// of the strictly convex slice (DESIGN.md §1): with
//
//	a = B0, b = B1, c = εK − A1 + A2K, d = A2K
//
// the minimizer of (aE + b)/(cE − dE²) solves a·d·E² + 2·b·d·E − b·c = 0:
//
//	E* = (−b·d + sqrt(b·d·(b·d + a·c))) / (a·d)
//
// clamped into [1, EMax(K)). For A2 = 0 the objective is strictly
// decreasing in E, so E* is unbounded; we return +Inf and callers must cap
// it. ErrInfeasible is returned when no feasible E exists at this K.
func (p Problem) OptimalE(k float64) (float64, error) {
	a, b := p.Energy.B0, p.Energy.B1
	c := p.Epsilon*k - p.Bound.A1 + p.Bound.A2*k
	d := p.Bound.A2 * k
	if p.Epsilon*k-p.Bound.A1 <= 0 {
		// Even E=1 violates Eq. 13c at this K.
		return 0, fmt.Errorf("E*(K=%v): εK − A1 = %v: %w", k, p.Epsilon*k-p.Bound.A1, ErrInfeasible)
	}
	if d == 0 {
		return math.Inf(1), nil
	}
	bd := b * d
	eStar := (-bd + math.Sqrt(bd*(bd+a*c))) / (a * d)
	if eStar < 1 {
		eStar = 1
	}
	// The stationary point always lies strictly inside (0, c/d); numerical
	// round-off aside, no upper clamp is needed, but guard anyway.
	if eMax := c / d; eStar >= eMax {
		eStar = math.Nextafter(eMax, 0) // just inside the open interval
	}
	if !p.Feasible(k, eStar) {
		return 0, fmt.Errorf("E*(K=%v) = %v is infeasible: %w", k, eStar, ErrInfeasible)
	}
	return eStar, nil
}

// SecondDerivativeK returns ∂²Ê/∂K² at (k, e), the quantity Lemma 1 proves
// positive on the feasible domain. Exposed for the property tests that
// verify biconvexity numerically.
func (p Problem) SecondDerivativeK(k, e float64) float64 {
	const h = 1e-4
	return (p.Objective(k+h, e) - 2*p.Objective(k, e) + p.Objective(k-h, e)) / (h * h)
}

// SecondDerivativeE returns ∂²Ê/∂E² at (k, e) (Lemma 2).
func (p Problem) SecondDerivativeE(k, e float64) float64 {
	const h = 1e-4
	return (p.Objective(k, e+h) - 2*p.Objective(k, e) + p.Objective(k, e-h)) / (h * h)
}
