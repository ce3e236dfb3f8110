// Command bench is the repository's end-to-end benchmark: wall-clock, bytes
// and joules to reach a loss target ε on four workloads — in-process, over
// TCP and over the lossy datagram link — with a per-layer budget from mat up
// to fldgram taken in a separate traced run. README.md in this directory says
// who the numbers are for and how to read them.
//
//	go run -C bench .                                  # all workloads, untraced and traced
//	go run -C bench . -workload wire_tcp -trace 0      # one workload, end-to-end only
//	go run -C bench . -compare a.json b.json           # judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the harness's own settings; the program under test sees none
// of them — it gets the generated shards and fl.Config.Seed and runs with
// its defaults (pool sizes 0 ⇒ GOMAXPROCS).
type options struct {
	seed    uint64
	seconds float64 // measuring time per workload
	runs    int     // >0: this many episodes (pairs, when traced) instead
	smoke   bool
	traced  bool
	outDir  string // where the span file goes; "" writes none
}

// check is one correctness condition of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one workload's part of a result file.
type result struct {
	Spec      spec               `json:"params"`
	Seed      uint64             `json:"seed"`
	Smoke     bool               `json:"smoke,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Checks    []check            `json:"checks"`
	// History fingerprint, for the cross-transport check.
	Rounds    int    `json:"rounds"`
	Digest    string `json:"digest"`
	WayRound  int    `json:"waypoint_round,omitempty"`
	WayDigest string `json:"waypoint_digest,omitempty"`
}

// measure runs one workload: untraced episodes for the end-to-end metrics
// and, when opt.traced, a traced twin after each one plus the layer probes.
// Every episode of a run uses the same seed, so their histories must agree
// bit for bit — that is the determinism (and observers-never-perturb) check.
func measure(sp spec, opt options) result {
	res := result{Spec: sp, Seed: opt.seed, Smoke: opt.smoke}
	lim := sp.limits(opt.smoke)
	if opt.smoke && opt.runs == 0 {
		opt.runs = 1
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	probeTime := probeBudget
	if opt.smoke {
		probeTime = probeBudgetSmoke
	}
	var tr *tracer
	if opt.traced {
		tr = newTracer(sp, opt.seed)
		// Sixteen time-boxed probes and their data follow the episodes.
		budget -= 16*probeTime + time.Second
	}

	var plain, traced []episode
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		// Two episodes at least: the determinism check needs a pair.
		if len(plain)+len(traced) >= 2 {
			if opt.runs > 0 && i >= opt.runs {
				break
			}
			if opt.runs == 0 && time.Since(start)+longest > budget {
				break
			}
		}
		t := time.Now()
		// Each episode starts from a collected heap, so peak RSS is that of
		// one episode and not of where the collector happened to be.
		runtime.GC()
		ep, err := runEpisode(sp, opt.seed, lim, nil)
		res.count(ep, err)
		if err != nil {
			return res.fail(fmt.Sprintf("episode %d", len(plain)), err)
		}
		plain = append(plain, ep)
		if opt.traced {
			runtime.GC()
			ep, err := runEpisode(sp, opt.seed, lim, tr)
			res.count(ep, err)
			if err != nil {
				return res.fail(fmt.Sprintf("traced episode %d", len(traced)), err)
			}
			traced = append(traced, ep)
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
	}

	first := plain[0]
	res.Rounds, res.Digest, res.WayRound, res.WayDigest = first.Rounds, first.Digest, first.WayRound, first.WayDigest
	var err error
	if res.EndToEnd, err = endToEndMetrics(plain); err != nil {
		return res.fail("end-to-end metrics", err)
	}
	res.checkEpisodes(sp, append(append([]episode(nil), plain...), traced...), opt.smoke)

	if opt.traced {
		res.PerLayer = map[string]float64{}
		if err := runProbes(sp, opt.seed, fastest(traced).Final, probeTime, tr, res.PerLayer); err != nil {
			return res.fail("layer probes", err)
		}
		layerMetrics(sp, plain, traced, res.PerLayer)
		for name, v := range res.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.add("finite metrics", false, "%s is %v", name, v)
				res.PerLayer[name] = 0
			}
		}
		res.checkBudget(sp, opt.smoke)
		if opt.outDir != "" {
			if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
				return res.fail("trace file", err)
			}
			if err := tr.write(filepath.Join(opt.outDir, sp.Name+".trace.jsonl")); err != nil {
				return res.fail("trace file", err)
			}
		}
	}
	res.settle()
	return res
}

// count adds an episode to attempted/failed: every selected client exchange
// and every round is one attempt; dropped exchanges and errored rounds fail.
func (res *result) count(ep episode, err error) {
	res.Attempted += ep.Exchanges + ep.Rounds
	res.Failed += ep.Dropped
	if err != nil {
		res.Attempted++
		res.Failed++
	}
}

func (res *result) add(name string, ok bool, format string, args ...any) {
	res.Checks = append(res.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// fail records a run that could not finish: it counts wholly failed.
func (res result) fail(what string, err error) result {
	res.add(what, false, "%v", err)
	res.settle()
	return res
}

// settle derives correct and fail_ratio from the checks: a run that fails a
// check counts wholly failed.
func (res *result) settle() {
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
}

// checkEpisodes runs the correctness checks every run carries.
func (res *result) checkEpisodes(sp spec, eps []episode, smoke bool) {
	first := eps[0]
	if smoke {
		res.add("target", true, "smoke: stopped after %d rounds, ε ignored", first.Rounds)
	} else {
		res.add("target", first.Reached, "loss %.6g ≤ ε=%g after %d rounds (cap %d)", first.LastLoss, sp.Epsilon, first.Rounds, 2*sp.RefRounds)
	}
	same := true
	for _, ep := range eps[1:] {
		same = same && ep.Rounds == first.Rounds && ep.Bytes == first.Bytes && ep.Digest == first.Digest && ep.Joules == first.Joules
	}
	res.add("deterministic", same && len(eps) > 1, "%d episodes of seed %d (traced ones included): rounds %d, bytes %d, weights %.12s…",
		len(eps), res.Seed, first.Rounds, first.Bytes, first.Digest)

	dropped, gap := 0, 0.0
	var downAtt, downDel, upAtt, upDel, invalid int64
	for _, ep := range eps {
		dropped += ep.Dropped
		gap += ep.edgeByteGap(sp)
		downAtt, downDel = downAtt+ep.DownAttempt, downDel+ep.DownDelivered
		upAtt, upDel = upAtt+ep.UpAttempt, upDel+ep.UpDelivered
		invalid += ep.Link.Coord.RxInvalidPackets + ep.Link.Edge.RxInvalidPackets
	}
	res.add("no drops", dropped == 0, "%d client exchanges dropped", dropped)
	if sp.Transport != "inproc" {
		res.add("byte accounting", gap == 0, "edge counters differ from the coordinator's per-round bytes by %g B", gap)
	}
	if sp.Transport == "dgram" {
		// Eq. 4: attempts per delivery is 1/p. A smoke run moves too few
		// packets for 2 %.
		want, tol := 1/sp.SuccessProb, 0.02
		if smoke {
			tol = 0.10
		}
		down, up := float64(downAtt)/float64(downDel), float64(upAtt)/float64(upDel)
		ok := math.Abs(down/want-1) <= tol && math.Abs(up/want-1) <= tol
		res.add("eq4 attempts", ok, "attempted/delivered down %.4f up %.4f, 1/p = %.4f ± %.0f %%", down, up, want, 100*tol)
		res.add("no invalid packets", invalid == 0, "%d datagrams failed validation", invalid)
	}
}

// checkBudget is the layer budget: the parts must explain the whole.
func (res *result) checkBudget(sp spec, smoke bool) {
	// A 5-round smoke run is too short for either closure to be stable.
	if smoke {
		return
	}
	resid := res.PerLayer["fl.budget_residual_pct"]
	res.add("budget closes", resid <= 2, "phases sum to the harness-timed round within %.2f %% (limit 2 %%)", resid)
	if sp.Name == "train_inproc" {
		eff := res.PerLayer["fl.pool_efficiency"]
		res.add("train explained", math.Abs(eff-1) <= 0.25, "⌈K/P⌉·ml.train_client_us explains %.0f %% of fl.train_ms (75–125 %%)", 100*eff)
	}
}

// environment is the provenance stored in every result file.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Link       string `json:"link"`
	When       string `json:"when"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
		Link:       "loopback (127.0.0.1), not a real link: rates and wire latency are not measured",
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to name, and git
	// must not wander up into some enclosing repository to find one.
	if _, err := os.Stat(filepath.Join("..", ".git")); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema    int         `json:"schema"`
	Env       environment `json:"environment"`
	Seed      uint64      `json:"seed"`
	Workloads []result    `json:"workloads"`
	Checks    []check     `json:"checks,omitempty"` // across workloads
}

// crossTransport checks the dgram ≡ TCP history contract at benchmark scale:
// the round and weights at which wire_tcp first crosses wire_dgram_loss10's
// ε are wire_dgram_loss10's final ones. A smoke run stops both after the
// same few rounds, so there the final weights must agree.
func crossTransport(results []result) (check, bool) {
	var tcp, dgram *result
	for i := range results {
		switch results[i].Spec.Transport {
		case "tcp":
			tcp = &results[i]
		case "dgram":
			dgram = &results[i]
		}
	}
	if tcp == nil || dgram == nil || !tcp.Correct || !dgram.Correct {
		return check{}, false
	}
	round, digest := tcp.WayRound, tcp.WayDigest
	if tcp.Smoke {
		round, digest = tcp.Rounds, tcp.Digest
	}
	ok := round == dgram.Rounds && digest == dgram.Digest
	return check{Name: "dgram ≡ tcp history", OK: ok, Detail: fmt.Sprintf(
		"wire_tcp at loss ≤ %g: round %d weights %.12s…; wire_dgram_loss10 final: round %d weights %.12s…",
		dgram.Spec.Epsilon, round, digest, dgram.Rounds, dgram.Digest)}, true
}

func printHeader(res result) {
	fmt.Printf("\n== %s  seed %d  %s  N=%d×%d rows  K=%d E=%d  ε=%g\n", res.Spec.Name, res.Seed, res.Spec.Transport,
		res.Spec.Fleet, res.Spec.Rows, res.Spec.K, res.Spec.E, res.Spec.Epsilon)
}

func printEndToEnd(res result) {
	for _, def := range endToEnd {
		s, ok := res.EndToEnd[def.Name]
		if !ok {
			continue
		}
		extra := ""
		if s.Samples > 0 {
			extra = fmt.Sprintf("  (median of %d rounds each)", s.Samples)
		}
		fmt.Printf("  %-36s %14.6g %-6s best of %d episodes; median %.6g q1 %.6g q3 %.6g%s\n",
			def.Name, s.Best, def.Unit, s.N, s.Median, s.Q1, s.Q3, extra)
	}
	fmt.Printf("  %-36s %14.6g %-6s %d failed of %d attempted\n", "fail_ratio", res.FailRatio, "ratio", res.Failed, res.Attempted)
}

func printPerLayer(res result) {
	for _, def := range perLayer {
		if v, ok := res.PerLayer[def.Name]; ok {
			fmt.Printf("  %-36s %14.6g %s\n", def.Name, v, def.Unit)
		}
	}
}

func printChecks(checks []check) {
	for _, c := range checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %s: %s\n", mark, c.Name, c.Detail)
	}
}

// driverLine is the one JSON object the benchmark driver reads from the last
// line of standard output.
func driverLine(res result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, def := range perLayer {
			metrics[def.Name] = value{res.PerLayer[def.Name], def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			metrics[def.Name] = value{res.EndToEnd[def.Name].Best, def.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	return string(b)
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload (default: all four): "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed of the generated inputs: partition, client selection, edge seeds, link loss pattern")
	seconds := flag.Float64("seconds", 20, "measuring time per workload; at least two episodes always run")
	runs := flag.Int("runs", 0, "run exactly this many episodes per workload instead of filling -seconds")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: traced run, per-layer metrics; -1: both")
	smoke := flag.Bool("smoke", false, "5 rounds per episode, ε ignored: a quick check that everything runs and adds up")
	out := flag.String("out", filepath.Join("out", "result.json"), "result file; span files go beside it")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		return 2
	}
	// The pools under test size themselves from GOMAXPROCS; a baseline
	// silently recorded on one core of a larger host describes no
	// deployment.
	if runtime.GOMAXPROCS(0) < 2 && runtime.NumCPU() >= 2 {
		fmt.Fprintf(os.Stderr, "refusing to run: GOMAXPROCS=%d on a host with %d CPUs; unset GOMAXPROCS\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}

	file := resultFile{Schema: 1, Env: readEnvironment(), Seed: *seed}
	if *workload == "" {
		// One child process per workload, so that peak RSS and the MemStats
		// deltas belong to that workload alone.
		for _, sp := range specs {
			part := strings.TrimSuffix(*out, ".json") + "." + sp.Name + ".json"
			res, err := measureInChild(sp.Name, part)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			file.Workloads = append(file.Workloads, res)
		}
		if c, ok := crossTransport(file.Workloads); ok {
			fmt.Println()
			printChecks([]check{c})
			file.Checks = append(file.Checks, c)
		}
	} else {
		sp, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *workload, workloadNames())
			return 2
		}
		fmt.Printf("eefei bench: nproc %d GOMAXPROCS %d %s, %s, commit %.12s\n  link: %s\n",
			file.Env.NProc, file.Env.GoMaxProcs, file.Env.GoVersion, file.Env.CPU, file.Env.Commit, file.Env.Link)
		opt := options{seed: *seed, seconds: *seconds, runs: *runs, smoke: *smoke, traced: *trace != 0, outDir: filepath.Dir(*out)}
		res := measure(sp, opt)
		printHeader(res)
		if *trace != 1 {
			printEndToEnd(res)
		}
		printPerLayer(res)
		printChecks(res.Checks)
		file.Workloads = append(file.Workloads, res)
	}

	if err := writeResult(*out, file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *workload != "" && *trace >= 0 {
		fmt.Println(driverLine(file.Workloads[0], *trace == 1))
	}
	for _, c := range file.Checks {
		if !c.OK {
			return 1
		}
	}
	for _, res := range file.Workloads {
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "%s: a correctness check failed; see [FAIL] above\n", res.Spec.Name)
			return 1
		}
	}
	return 0
}

// measureInChild runs one workload in a copy of this process with the same
// flags, and reads back the result file the child wrote. The child's failed
// checks are in that file; only a child that left no result is an error.
func measureInChild(name, part string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, append(os.Args[1:], "-workload", name, "-out", part)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	file, err := readResult(part)
	if err != nil {
		return result{}, fmt.Errorf("%s: child: %v, result: %w", name, runErr, err)
	}
	return file.Workloads[0], nil
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func writeResult(path string, file resultFile) error {
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
