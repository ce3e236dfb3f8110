package core

import (
	"fmt"
	"math"

	"eefei/internal/optim"
)

// Plan is the output of the EE-FEI planner: the jointly optimized training
// parameters and their predicted cost.
type Plan struct {
	// K and E are the integer parameters to deploy.
	K, E int
	// T is the integer number of global rounds to schedule (⌈T*⌉, at
	// least 1).
	T int
	// ContinuousK, ContinuousE, ContinuousT are the relaxed optimizer
	// outputs before integer rounding.
	ContinuousK, ContinuousE, ContinuousT float64
	// PredictedJoules is Ê at the integer plan.
	PredictedJoules float64
	// BaselineJoules is Ê at (K=1, E=1), the naive configuration the paper
	// compares against for its 49.8% headline.
	BaselineJoules float64
	// Iterations is the number of ACS alternations performed.
	Iterations int
}

// Savings returns the fractional energy reduction of the plan versus the
// (K=1, E=1) baseline, e.g. 0.498 for the paper's headline number. NaN when
// the baseline is infeasible.
func (p Plan) Savings() float64 {
	if p.BaselineJoules <= 0 || math.IsInf(p.BaselineJoules, 0) {
		return math.NaN()
	}
	return 1 - p.PredictedJoules/p.BaselineJoules
}

// PlannerConfig tunes the ACS run of Algorithm 1.
type PlannerConfig struct {
	// Residual is ξ, the objective-change threshold that stops the
	// alternation.
	Residual float64
	// MaxIterations bounds the alternation count.
	MaxIterations int
	// InitialK, InitialE seed the search; zero values select (N, 1), a
	// feasible corner.
	InitialK, InitialE float64
	// ECap bounds E when A2 = 0 makes the E-slice unbounded. Zero selects
	// 10000.
	ECap float64
}

// DefaultPlannerConfig returns ξ = 1e-9·scale-free and 100 iterations.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{Residual: 1e-9, MaxIterations: 100}
}

// Solve runs Algorithm 1: Alternate Convex Search with the closed-form
// partial minimizers, then refines to the best feasible integer neighbours.
func Solve(p Problem, cfg PlannerConfig) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if cfg.Residual <= 0 {
		cfg.Residual = 1e-9
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	eCap := cfg.ECap
	if eCap <= 0 {
		eCap = 10000
	}
	k0 := cfg.InitialK
	if k0 < 1 || k0 > float64(p.Servers) {
		k0 = float64(p.Servers)
	}
	e0 := cfg.InitialE
	if e0 < 1 {
		e0 = 1
	}
	if !p.Feasible(k0, e0) {
		return Plan{}, fmt.Errorf("initial point (%v,%v): %w", k0, e0, ErrInfeasible)
	}

	problem := optim.ACSProblem{
		Objective: p.Objective,
		MinimizeX: func(e float64) float64 {
			k, err := p.OptimalK(e)
			if err != nil {
				return k0 // keep the previous-feasible fallback
			}
			return k
		},
		MinimizeY: func(k float64) float64 {
			e, err := p.OptimalE(k)
			if err != nil {
				return 1
			}
			if math.IsInf(e, 1) || e > eCap {
				return eCap
			}
			return e
		},
	}
	res, err := optim.ACS(problem, k0, e0, cfg.Residual, cfg.MaxIterations)
	if err != nil {
		return Plan{}, fmt.Errorf("algorithm 1: %w", err)
	}

	plan, err := integerize(p, res.X, res.Y)
	if err != nil {
		return Plan{}, err
	}
	plan.Iterations = res.Iterations
	plan.BaselineJoules = p.Objective(1, 1)
	return plan, nil
}

// integerize rounds a continuous solution to the best feasible integer
// neighbour and fills in the plan.
func integerize(p Problem, kc, ec float64) (Plan, error) {
	bestVal := math.Inf(1)
	var bestK, bestE int
	for _, k := range []int{int(math.Floor(kc)), int(math.Ceil(kc))} {
		for _, e := range []int{int(math.Floor(ec)), int(math.Ceil(ec))} {
			kk, ee := clampInt(k, 1, p.Servers), maxInt(e, 1)
			if !p.Feasible(float64(kk), float64(ee)) {
				continue
			}
			if v := p.Objective(float64(kk), float64(ee)); v < bestVal {
				bestVal, bestK, bestE = v, kk, ee
			}
		}
	}
	if math.IsInf(bestVal, 1) {
		return Plan{}, fmt.Errorf("no feasible integer neighbour of (%v,%v): %w", kc, ec, ErrInfeasible)
	}
	tStar, err := p.TStar(float64(bestK), float64(bestE))
	if err != nil {
		return Plan{}, err
	}
	tInt, err := planRounds(tStar)
	if err != nil {
		return Plan{}, err
	}
	ct, err := p.TStar(kc, ec)
	if err != nil {
		// The continuous point can sit on the feasibility boundary after
		// capping; report the integer T* instead.
		ct = tStar
	}
	return Plan{
		K:               bestK,
		E:               bestE,
		T:               tInt,
		ContinuousK:     kc,
		ContinuousE:     ec,
		ContinuousT:     ct,
		PredictedJoules: bestVal,
	}, nil
}

// SolveGrid exhaustively minimizes the integer problem over the full box
// [1,N]×[1,eMax], the brute-force baseline used by the ACS ablation bench.
func SolveGrid(p Problem, eMax int) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if eMax < 1 {
		eMax = 1
	}
	best, err := optim.GridSearch2D(
		func(k, e int) float64 { return p.Objective(float64(k), float64(e)) },
		func(k, e int) bool { return p.Feasible(float64(k), float64(e)) },
		1, p.Servers, 1, eMax,
	)
	if err != nil {
		return Plan{}, fmt.Errorf("grid plan: %w", err)
	}
	tStar, err := p.TStar(float64(best.X), float64(best.Y))
	if err != nil {
		return Plan{}, err
	}
	tInt, err := planRounds(tStar)
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		K:               best.X,
		E:               best.Y,
		T:               tInt,
		ContinuousK:     float64(best.X),
		ContinuousE:     float64(best.Y),
		ContinuousT:     tStar,
		PredictedJoules: best.Value,
		BaselineJoules:  p.Objective(1, 1),
	}, nil
}

// planRounds is the integer round count a plan reports, ⌈T*⌉ (at least 1).
// A T* past int's range is refused, not wrapped: the conversion would
// otherwise report a plan of one round.
func planRounds(tStar float64) (int, error) {
	t := math.Ceil(tStar)
	if !(t < math.MaxInt) {
		return 0, fmt.Errorf("T* = %g rounds is past the integer range: %w", tStar, ErrInfeasible)
	}
	return maxInt(int(t), 1), nil
}

func clampInt(v, lo, hi int) int {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
