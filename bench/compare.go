package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (resultFile, error) {
	var file resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return file, err
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return file, fmt.Errorf("%s: %w", path, err)
	}
	if file.Schema != 1 || len(file.Workloads) == 0 {
		return file, fmt.Errorf("%s: not a bench result file (schema %d, %d workloads)", path, file.Schema, len(file.Workloads))
	}
	return file, nil
}

// verdict judges one end-to-end metric of b against base a. worse: b's
// reported value is worse than a's by more than the bound. unresolved: the
// run-to-run spread of either side is wider than the bound, so the run was
// disturbed and cannot tell — unless every run of b reads better than every
// run of a.
func verdict(def metricDef, a, b summary) string {
	sign := 1.0 // lower is better
	if def.Better == "higher" {
		sign = -1
	}
	if a.spread() > def.Bound || b.spread() > def.Bound {
		for _, vb := range b.Values {
			for _, va := range a.Values {
				if sign*(vb-va) >= 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if sign*(b.Best-a.Best) > def.Bound*a.Best {
		return "worse"
	}
	return "ok"
}

// compareFiles prints, per workload × end-to-end metric, both reported values
// with their medians and quartiles, the ratio with its base, the bound and
// the verdict. It returns non-zero on any worse metric and on any rise in
// fail_ratio.
func compareFiles(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b resultFile
		if b, err = readResult(pathB); err == nil {
			return compareResults(a, b, pathA, pathB)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func compareResults(a, b resultFile, nameA, nameB string) int {
	fmt.Printf("a = %s  commit %.12s seed %d GOMAXPROCS %d\nb = %s  commit %.12s seed %d GOMAXPROCS %d\n",
		nameA, a.Env.Commit, a.Seed, a.Env.GoMaxProcs, nameB, b.Env.Commit, b.Seed, b.Env.GoMaxProcs)
	bad := 0
	for _, ra := range a.Workloads {
		var rb *result
		for i := range b.Workloads {
			if b.Workloads[i].Spec.Name == ra.Spec.Name {
				rb = &b.Workloads[i]
			}
		}
		if rb == nil {
			fmt.Printf("\n== %s: missing from b\n", ra.Spec.Name)
			bad++
			continue
		}
		fmt.Printf("\n== %s\n  %-22s %-6s %12s %-34s %12s %-34s %-24s %6s  %s\n", ra.Spec.Name,
			"metric", "unit", "a", "median [q1, q3] n", "b", "median [q1, q3] n", "b÷a (base a)", "bound", "verdict")
		for _, def := range endToEnd {
			sa, sb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			v := verdict(def, sa, sb)
			if v == "worse" {
				bad++
			}
			fmt.Printf("  %-22s %-6s %12.6g %-34s %12.6g %-34s %-24s %5.0f%%  %s\n", def.Name, def.Unit,
				sa.Best, fmt.Sprintf("%.5g [%.5g, %.5g] %d", sa.Median, sa.Q1, sa.Q3, sa.N),
				sb.Best, fmt.Sprintf("%.5g [%.5g, %.5g] %d", sb.Median, sb.Q1, sb.Q3, sb.N),
				fmt.Sprintf("%.4f× of %.6g %s", sb.Best/sa.Best, sa.Best, def.Unit), 100*def.Bound, v)
		}
		v := "ok"
		if rb.FailRatio > ra.FailRatio {
			v = "worse"
			bad++
		}
		fmt.Printf("  %-22s %-6s %12.6g %-34s %12.6g %-34s %-24s %6s  %s\n", "fail_ratio", "ratio",
			ra.FailRatio, fmt.Sprintf("%d of %d", ra.Failed, ra.Attempted),
			rb.FailRatio, fmt.Sprintf("%d of %d", rb.Failed, rb.Attempted), "may not rise", "+0", v)
	}
	if bad > 0 {
		fmt.Printf("\n%d worse\n", bad)
		return 1
	}
	fmt.Println("\nno metric worse than its bound")
	return 0
}
