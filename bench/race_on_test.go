//go:build race

package main

// raceEnabled lifts the smoke test's time limit: the race detector slows the
// kernels several-fold.
const raceEnabled = true
