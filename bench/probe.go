package main

import (
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// Layer probes: direct calls into one layer's public functions, timed from
// outside. Each probe is time-boxed and reports its fastest batch: on a
// shared host other tenants only ever add time.

// probeBudget is the wall-clock one probe may spend; -smoke shortens it.
const (
	probeBudget      = 150 * time.Millisecond
	probeBudgetSmoke = 10 * time.Millisecond
)

// timeOp returns f's nanoseconds per call in the fastest batch.
func timeOp(budget time.Duration, f func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t); d >= budget/20 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	best := math.Inf(1)
	for batch, deadline := 0, time.Now().Add(budget); batch < 5 || time.Now().Before(deadline); batch++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		best = math.Min(best, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return best
}

// allocsPerOp returns heap objects and bytes allocated per call of f over n
// calls (process-wide MemStats, so run it with nothing else going on).
func allocsPerOp(n int, f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// The fixed data the mat and ml probes run on: one evaluator chunk (256 rows)
// for the kernels, eight for the evaluator.
const (
	probeBlockRows = 256
	probeEvalRows  = 2048
)

// runProbes measures the layers below the round, on the workload's own
// shard shape where the number feeds the layer budget (ml.sgd_epoch_us,
// ml.train_client_us) and on a fixed block elsewhere, so kernel numbers
// compare across workloads. model is the global model the run reached: the
// kernels skip exactly-zero softmax deltas, so what an epoch costs depends on
// how far the weights have come, and a fresh model would overstate it.
func runProbes(sp spec, seed uint64, model *ml.Model, budget time.Duration, tr *tracer, out map[string]float64) error {
	data, err := dataset.SynthesizeParallel(taskConfig(probeEvalRows), 0)
	if err != nil {
		return err
	}
	train, err := dataset.SynthesizeParallel(taskConfig(sp.Fleet*sp.Rows), 0)
	if err != nil {
		return err
	}
	shards, err := dataset.EqualShards(train, sp.Fleet, seed)
	if err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	rng := mat.NewRNG(seed)

	tr.probe("mat", func() {
		block := data.X.SliceRows(0, probeBlockRows)
		logits := mat.NewDense(probeBlockRows, data.Classes)
		delta := mat.NewDense(probeBlockRows, data.Classes)
		for i, d := 0, delta.RawData(); i < len(d); i++ {
			d[i] = rng.NormScaled(0, 0.1)
		}
		grad := mat.NewDense(data.Classes, data.Dim())
		mult := timeOp(budget, func() { err = firstErr(err, mat.MulT(logits, &block, model.W)) })
		multw := timeOp(budget, func() { err = firstErr(err, mat.MulTWorkers(logits, &block, model.W, procs)) })
		out["mat.mult_us"] = mult / 1e3
		out["mat.multw_speedup"] = mult / multw
		out["mat.addmulta_us"] = timeOp(budget, func() { err = firstErr(err, mat.AddMulTA(grad, delta, &block, 1e-6)) }) / 1e3
	})
	if err != nil {
		return err
	}

	tr.probe("ml", func() {
		sgd, e := ml.NewSGD(ml.SGDConfig{LearningRate: learningRate, Seed: seed})
		if err = firstErr(err, e); err != nil {
			return
		}
		local := model.Clone()
		epoch := func() {
			e := local.CopyFrom(model)
			if e == nil {
				_, e = sgd.Epoch(local, shards[0])
			}
			err = firstErr(err, e)
		}
		out["ml.sgd_epoch_us"] = timeOp(budget, epoch) / 1e3
		out["ml.allocs_per_epoch"], _ = allocsPerOp(20, epoch)
		// A client costs more early in a run, when no softmax delta is yet
		// exactly zero, than at the end; the round's mean lies between.
		first, e := trainClient(sp, seed, shards, ml.NewModel(model.Classes(), model.Features(), model.Act), budget)
		err = firstErr(err, e)
		last, e := trainClient(sp, seed, shards, model, budget)
		err = firstErr(err, e)
		out["ml.train_client_us"] = (first + last) / 2

		one, all := ml.NewEvaluator(1), ml.NewEvaluator(procs)
		t1 := timeOp(budget, func() { _, _, e := one.Metrics(model, data); err = firstErr(err, e) })
		tp := timeOp(budget, func() { _, _, e := all.Metrics(model, data); err = firstErr(err, e) })
		out["ml.eval_us_per_krow"] = t1 / 1e3 / (float64(data.Len()) / 1000)
		out["ml.eval_speedup"] = t1 / tp

		var buf []byte
		out["ml.encode_us"] = timeOp(budget, func() { buf = model.AppendBinary(buf[:0]) }) / 1e3
		out["ml.decode_us"] = timeOp(budget, func() { err = firstErr(err, local.UnmarshalBinaryReuse(buf)) }) / 1e3
	})
	if err != nil {
		return err
	}

	tr.probe("fldgram.pipe", func() {
		frame := make([]byte, model.EncodedSize())
		var e error
		out["fldgram.pipe_frame_us"], _, _, e = pipeFrame(frame, 1, budget)
		err = firstErr(err, e)
		out["fldgram.pipe_frame_us_loss10"], out["fldgram.pipe_allocs_per_frame"], out["fldgram.pipe_alloc_kb_per_frame"], e =
			pipeFrame(frame, 0.9, budget)
		err = firstErr(err, e)
	})
	if err != nil {
		return err
	}

	tr.probe("energy", func() {
		cal, e := energy.NewCalibrator(energy.DefaultPiPowerModel(), sp.E, sp.Rows,
			energy.WithRadioModel(energy.DefaultWiFiRadioModel()))
		if err = firstErr(err, e); err != nil {
			return
		}
		s := fl.RoundStats{
			Select: time.Microsecond, Train: time.Millisecond, Aggregate: 10 * time.Microsecond,
			Evaluate: 100 * time.Microsecond, Total: 1200 * time.Microsecond,
			Workers: sp.K, DownlinkBytes: 1 << 19, UplinkBytes: 1 << 19,
		}
		observe := func() { cal.ObserveRound(s) }
		out["energy.observe_ns"] = timeOp(budget, observe)
		out["energy.observe_allocs"], _ = allocsPerOp(1000, observe)
	})
	return err
}

// trainClient times what the fl pool does for one selected client — copy the
// global model, reset the optimizer, E epochs (SGD.TrainFinal) — with as many
// trainers running at once as the pool has workers, so the number carries the
// memory contention the round sees. It is the part the layer budget multiplies by ⌈K/workers⌉
// to explain fl.train_ms.
func trainClient(sp spec, seed uint64, shards []*dataset.Dataset, model *ml.Model, budget time.Duration) (us float64, err error) {
	workers := min(runtime.GOMAXPROCS(0), sp.K)
	cfg := ml.SGDConfig{LearningRate: learningRate, Seed: seed}
	per, errs := make([]float64, workers), make([]error, workers)
	var timing atomic.Int64 // trainers still inside timeOp
	timing.Store(int64(workers))
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sgd, e := ml.NewSGD(cfg)
			errs[w] = e
			local := model.Clone()
			// Every call moves on to another shard, as the pool's next
			// client is another one: the first epoch reads it from memory.
			next := w
			train := func() {
				if errs[w] == nil {
					errs[w] = local.CopyFrom(model)
				}
				if errs[w] == nil {
					errs[w] = sgd.Reset(cfg)
				}
				if errs[w] == nil {
					_, errs[w] = sgd.TrainFinal(local, shards[next%len(shards)], sp.E)
				}
				next += workers
			}
			per[w] = timeOp(budget, train)
			// Keep the others contended until they have their number too.
			for timing.Add(-1); timing.Load() > 0 && errs[w] == nil; {
				train()
			}
		}()
	}
	wg.Wait()
	for w := range per {
		err = firstErr(err, errs[w])
		us += per[w] / 1e3 / float64(workers)
	}
	return us, err
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// pipeFrame moves one model-sized frame at a time through an in-memory
// fldgram.Pipe with the given per-attempt delivery probability, and returns
// the time, heap objects and KiB per frame (both ends together).
func pipeFrame(frame []byte, successProb float64, budget time.Duration) (us, objects, kb float64, err error) {
	a, b := fldgram.Pipe(fldgram.Config{Seed: 1, SuccessProb: successProb}, fldgram.Config{Seed: 2, SuccessProb: successProb})
	// The reader reports each frame (or its final error) on got; capacity 1
	// lets it leave its last word behind and exit once the pipe is closed.
	got := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, len(frame))
		for {
			_, e := io.ReadFull(b, buf)
			got <- e
			if e != nil {
				return
			}
		}
	}()
	send := func() {
		if _, e := a.Write(frame); e != nil {
			err = firstErr(err, e)
			return
		}
		err = firstErr(err, <-got)
	}
	send() // first frame sizes both ends' scratch
	if err == nil {
		us = timeOp(budget, send) / 1e3
		objects, kb = allocsPerOp(20, send)
		kb /= 1024
	}
	a.Close()
	b.Close()
	<-done
	return us, objects, kb, err
}
