package eefei_test

import (
	"fmt"
	"log"
	"math"

	"eefei"
	"eefei/internal/energy"
)

// Solve the paper's energy-minimization problem and print the optimal
// (K*, E*, T*) plan and the headline savings, then plan a custom system.
func Example_quickstart() {
	// The calibrated default problem mirrors the paper's prototype: 20
	// Raspberry-Pi edge servers with 3000 pre-loaded samples each, training
	// multinomial logistic regression to a 0.08 optimality gap.
	plan, err := eefei.PlanDefault()
	if err != nil {
		log.Fatalf("plan: %v", err)
	}

	fmt.Println("EE-FEI quickstart — Algorithm 1 (Alternate Convex Search)")
	fmt.Printf("  edge servers per round  K* = %d\n", plan.K)
	fmt.Printf("  local epochs per round  E* = %d\n", plan.E)
	fmt.Printf("  global rounds           T* = %d\n", plan.T)
	fmt.Printf("  predicted total energy  %.1f J\n", plan.PredictedJoules)
	fmt.Printf("  naive (K=1, E=1) energy %.1f J\n", plan.BaselineJoules)
	fmt.Printf("  energy saving           %.1f%%  (paper: 49.8%%)\n", 100*plan.Savings())

	// Custom systems plug their own constants in. Here: a denser deployment
	// with noisier (non-IID-like) gradients — A1 grows, so more servers per
	// round pay off.
	problem := eefei.DefaultProblem()
	problem.Servers = 50
	problem.Bound.A1 = 0.4
	custom, err := eefei.PlanProblem(problem)
	if err != nil {
		log.Fatalf("custom plan: %v", err)
	}
	fmt.Printf("\nnon-IID-like system (A1=%.2f, N=%d): K*=%d E*=%d T*=%d (%.1f J)\n",
		problem.Bound.A1, problem.Servers, custom.K, custom.E, custom.T, custom.PredictedJoules)
	// With A1 this large, a single server can never reach ε (εK ≤ A1), so
	// the (K=1, E=1) baseline is infeasible and no savings ratio exists.
	if s := custom.Savings(); !math.IsNaN(s) {
		fmt.Printf("saving vs (K=1,E=1): %.1f%%\n", 100*s)
	} else {
		fmt.Println("the (K=1,E=1) baseline is infeasible here — K*>1 is mandatory, not just cheaper")
	}
	// Output:
	// EE-FEI quickstart — Algorithm 1 (Alternate Convex Search)
	//   edge servers per round  K* = 1
	//   local epochs per round  E* = 43
	//   global rounds           T* = 103
	//   predicted total energy  1067.6 J
	//   naive (K=1, E=1) energy 2133.6 J
	//   energy saving           50.0%  (paper: 49.8%)
	//
	// non-IID-like system (A1=0.40, N=50): K*=10 E*=32 T*=242 (18979.5 J)
	// the (K=1,E=1) baseline is infeasible here — K*>1 is mandatory, not just cheaper
}

// The full calibration → optimization loop a deployment would run: measure
// training-step durations with the simulated power meter (the Table-I
// procedure), fit the c0/c1 energy coefficients by least squares, fold them
// into the Eq.-(12) constants, and solve for the energy-optimal (K*, E*, T*).
func Example_energyPlanner() {
	// Step 1 — measure. Clamp the (simulated) POWER-Z onto an edge server
	// and record training runs across the paper's Table-I grid.
	dm := eefei.DefaultDeviceModel()
	meter, err := energy.NewMeter(dm.Power, 1000, 7)
	if err != nil {
		log.Fatalf("meter: %v", err)
	}
	var obs []energy.TrainObservation
	fmt.Println("measuring training-step durations (Table-I procedure):")
	for _, e := range []int{10, 20, 40} {
		for _, n := range []int{100, 500, 1000, 2000} {
			o, err := energy.MeasureTraining(meter, dm.Time, e, n)
			if err != nil {
				log.Fatalf("measure E=%d n=%d: %v", e, n, err)
			}
			obs = append(obs, o)
		}
	}

	// Step 2 — fit the paper's Eq.-(5) coefficients.
	c0, c1, err := energy.FitCoefficients(obs)
	if err != nil {
		log.Fatalf("fit: %v", err)
	}
	fmt.Printf("  fitted c0 = %.4g J/(sample·epoch)  (paper: 7.79e-05)\n", c0)
	fmt.Printf("  fitted c1 = %.4g J/epoch           (paper: 3.34e-03)\n", c1)

	// Step 3 — assemble the energy constants for a 3000-sample deployment
	// with pre-loaded data (B0 from the fit, B1 from the upload phase).
	const samplesPerServer = 3000
	params := eefei.EnergyParams{
		B0: c0*samplesPerServer + c1,
		B1: dm.UploadEnergy(),
	}
	fmt.Printf("  B0 = %.4f J/epoch, B1 = %.4f J/round\n", params.B0, params.B1)

	// Step 4 — optimize.
	problem := eefei.Problem{
		Bound:   eefei.BoundConstants{A0: 300, A1: 0.01, A2: 4e-5},
		Energy:  params,
		Epsilon: 0.08,
		Servers: 20,
	}
	plan, err := eefei.PlanProblem(problem)
	if err != nil {
		log.Fatalf("plan: %v", err)
	}
	fmt.Printf("\noptimal plan from measured coefficients: K*=%d, E*=%d, T*=%d\n",
		plan.K, plan.E, plan.T)
	fmt.Printf("predicted energy %.1f J — %.1f%% below the (K=1,E=1) baseline\n",
		plan.PredictedJoules, 100*plan.Savings())

	// Step 5 — sanity-check against brute force.
	grid, err := eefei.PlanGrid(problem, 500)
	if err != nil {
		log.Fatalf("grid: %v", err)
	}
	fmt.Printf("grid-search cross-check: K=%d, E=%d (%.1f J)\n",
		grid.K, grid.E, grid.PredictedJoules)

	// Step 6 — close the loop. A live deployment doesn't re-run the bench-top
	// procedure: it feeds each round's measured phase timings through a
	// Calibrator (a round observer) and refits the TimeModel from what the
	// fleet actually did. Here the "fleet" is the analytic model itself, so
	// the refit must land back on it — drift ≈ 0 is the proof the
	// round-trip is lossless.
	cal, err := eefei.NewCalibrator(dm.Power, 1, 0)
	if err != nil {
		log.Fatalf("calibrator: %v", err)
	}
	fmt.Println("\nclosing the loop: replaying round timings through a calibrator:")
	for _, e := range []int{10, 20, 40} {
		for _, n := range []int{100, 500, 1000, 2000} {
			if err := cal.SetRoundShape(e, n); err != nil {
				log.Fatalf("shape E=%d n=%d: %v", e, n, err)
			}
			train := dm.Time.TrainDuration(e, n)
			cal.ObserveRound(eefei.RoundStats{
				Select:    dm.Time.Waiting,
				Train:     train,
				Evaluate:  dm.Time.Download,
				Aggregate: dm.Time.Upload,
				Total:     dm.Time.Waiting + train + dm.Time.Download + dm.Time.Upload,
			})
		}
	}
	refit, err := cal.Refit()
	if err != nil {
		log.Fatalf("refit: %v", err)
	}
	fmt.Printf("  refit per-sample %v (model %v), per-epoch %v (model %v)\n",
		refit.TrainPerSample, dm.Time.TrainPerSample, refit.TrainPerEpoch, dm.Time.TrainPerEpoch)
	for _, d := range cal.Drift(dm.Time) {
		fmt.Printf("  %-9s measured %12v  modeled %12v  drift %+.2f%%\n",
			d.Phase, d.Measured, d.Modeled, d.Pct)
	}
	fmt.Printf("  measured ledger: %.2f J over %d rounds\n", cal.Ledger().Total(), cal.Rounds())
	// Output:
	// measuring training-step durations (Table-I procedure):
	//   fitted c0 = 7.79e-05 J/(sample·epoch)  (paper: 7.79e-05)
	//   fitted c1 = 0.003269 J/epoch           (paper: 3.34e-03)
	//   B0 = 0.2370 J/epoch, B1 = 0.2608 J/round
	//
	// optimal plan from measured coefficients: K*=1, E*=43, T*=103
	// predicted energy 1067.2 J — 50.0% below the (K=1,E=1) baseline
	// grid-search cross-check: K=1, E=43 (1067.2 J)
	//
	// closing the loop: replaying round timings through a calibrator:
	//   refit per-sample 14.03µs (model 14.03µs), per-epoch 601.499µs (model 601.5µs)
	//   waiting   measured        200ms  modeled        200ms  drift +0.00%
	//   download  measured         60ms  modeled         60ms  drift +0.00%
	//   train     measured    308.665ms  modeled 308.664999ms  drift +0.00%
	//   upload    measured         52ms  modeled         52ms  drift +0.00%
	//   measured ledger: 35.42 J over 12 rounds
}

// Federated MNIST-substitute training with full energy accounting, the
// scenario the paper's prototype implements: twenty simulated edge servers
// train a shared softmax classifier under FedAvg while a calibrated
// Raspberry-Pi power model meters every phase of every round.
func Example_federatedMNIST() {
	// Synthetic MNIST substitute: deterministic, 8×8 at example scale so
	// this runs in well under a second (use Side: 28 for paper scale).
	dcfg := eefei.SyntheticConfig{
		Samples: 2000, Classes: 10, Side: 8, Noise: 0.42, BlobsPerClass: 3, Seed: 1,
	}
	testCfg := dcfg
	testCfg.Samples = 400
	train, test, err := eefei.SynthesizePair(dcfg, testCfg)
	if err != nil {
		log.Fatalf("synthesize: %v", err)
	}

	const servers = 20
	shards, err := eefei.PartitionIID(train, servers, 1)
	if err != nil {
		log.Fatalf("partition: %v", err)
	}

	cfg := eefei.DefaultSimConfig()
	cfg.Servers = servers
	cfg.FL = eefei.FLConfig{
		ClientsPerRound: 10,
		LocalEpochs:     20,
		LearningRate:    0.1,
		Decay:           0.99,
		Seed:            1,
	}

	fmt.Printf("federated training: %d servers × %d samples, K=%d, E=%d\n",
		servers, shards[0].Len(), cfg.FL.ClientsPerRound, cfg.FL.LocalEpochs)

	res, err := eefei.Simulate(cfg, shards, test,
		eefei.AnyOf(eefei.TargetAccuracy(0.89), eefei.MaxRounds(100)))
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	for _, rec := range res.History {
		fmt.Printf("round %2d: loss %.4f, accuracy %.4f, lr %.4f\n",
			rec.Round, rec.TrainLoss, rec.TestAccuracy, rec.LearningRate)
	}
	fmt.Printf("\nreached %.1f%% accuracy in %d rounds\n",
		100*res.FinalAccuracy, len(res.History))
	fmt.Printf("energy: train %.1f J + upload %.1f J + download %.1f J + waiting %.1f J = %.1f J\n",
		res.Ledger.Phase(eefei.PhaseTrain),
		res.Ledger.Phase(eefei.PhaseUpload),
		res.Ledger.Phase(eefei.PhaseDownload),
		res.Ledger.Phase(eefei.PhaseWaiting),
		res.TotalJoules())
	fmt.Printf("virtual wall-clock: %v\n", res.WallClock)
	// Output:
	// federated training: 20 servers × 100 samples, K=10, E=20
	// round  0: loss 2.0138, accuracy 0.8150, lr 0.1000
	// round  1: loss 1.7848, accuracy 0.7725, lr 0.0990
	// round  2: loss 1.5983, accuracy 0.9050, lr 0.0980
	//
	// reached 90.5% accuracy in 3 rounds
	// energy: train 6.7 J + upload 7.8 J + download 7.7 J + waiting 21.6 J = 43.8 J
	// virtual wall-clock: 1.05627s
}
