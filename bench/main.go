// Command bench is the repository's benchmark: the golden Fig. 12 sweep
// (all five defenses) and the margin-erosion sweep, driven through every
// route a user runs them by — in process, the campaign engine over a warm
// store, svard-served cold and warm over loopback, and the fabric with
// two workers — with the simulated outputs checked on every pass.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh --suite 10 --out a.json
//	bash bench/run.sh --compare a.json b.json
//
// run.sh is `go run .` in this directory with the toolchain's caches kept
// under .bench_build/ in the checkout.
//
// See README.md beside this file and BENCHMARK.json at the repository
// root, which declares every workload and metric this program emits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is where a run's numbers were taken.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	TempFS     string `json:"temp_fs"` // filesystem under the store directories
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "input seed: feeds Base.Seed of every simulated cell")
		seconds  = flag.Float64("seconds", 0, "seconds to measure (0 = run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "1 = the per-layer run: span recorder on, layer probes, span file under out/")
		suite    = flag.Int("suite", 0, "run every workload under seeds 1..N (plus one traced run each) and write a result file")
		out      = flag.String("out", "", "result file of -suite (default out/suite.json)")
		compare  = flag.Bool("compare", false, "compare two -suite result files: bench -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced, *suite, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced, suite int, out string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	c, err := loadContract(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(c, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(c.RunSeconds)
	}
	outDir := filepath.Join(root, c.Paths[0], "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if suite > 0 {
		if out == "" {
			out = filepath.Join(outDir, "suite.json")
		}
		return runSuite(c, outDir, suite, seconds, out)
	}

	w, ok := workloadByName(workload)
	if !ok || !c.workload(workload) {
		return fmt.Errorf("unknown workload %q; BENCHMARK.json lists %d", workload, len(c.Workloads))
	}
	// Store directories live inside the checkout: the benchmark reads and
	// writes nowhere else.
	tmp, err := os.MkdirTemp(outDir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	workers := runtime.GOMAXPROCS(0)
	oversubscribed, err := checkParallelism(workers, runtime.NumCPU())
	if err != nil {
		return err
	}
	if oversubscribed != "" {
		fmt.Fprintln(os.Stderr, "bench: warning:", oversubscribed)
	}
	in, err := newInputs(root, tmp, seed, workers)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := &report{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced != 0,
		Loop:    "closed: each client waits for its result before its next request",
		Metrics: ledger{},
		Env:     captureEnv(root, tmp),

		Oversubscribed: oversubscribed,
		// The repository holds no real-chip reference results: the golden
		// fixtures prove the simulator stable, not right.
		ModelValidated: false,
	}
	declared, dur := c.EndToEnd, time.Duration(seconds*float64(time.Second))
	if rep.Traced {
		declared = c.PerLayer
		err = runTraced(ctx, w, in, dur, rep, outDir)
	} else {
		err = runUntraced(ctx, w, in, dur, rep)
	}
	if err != nil {
		return err
	}
	if err := rep.Metrics.conform(declared); err != nil {
		return err
	}
	rep.Correct = rep.Failed == 0

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(reportPath(outDir, workload, seed, rep.Traced), append(b, '\n'), 0o644); err != nil {
		return err
	}
	line, err := resultLine(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func reportPath(outDir, workload string, seed uint64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace%d.json", workload, seed, t))
}

// result is the last line of standard output: exactly these keys, and per
// metric exactly value and unit (the sample count stays in the report).
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   ledger `json:"metrics"`
}

func resultLine(rep *report) ([]byte, error) {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: ledger{}}
	for name, v := range rep.Metrics {
		res.Metrics.set(name, v.Unit, v.Value, 0) // n = 0 is omitted
	}
	// Marshal fails on a NaN or Inf: a measurement that divided by zero
	// must not reach the driver as a number.
	return json.Marshal(res)
}

// maxClients is the most closed-loop clients any workload runs
// (fig12_served_warm); the fabric's two one-slot workers need as many
// processors.
const maxClients = 2

// checkParallelism refuses to measure with more simulation workers than
// processors: oversubscribed, the numbers would time the scheduler instead
// of the system. That takes a GOMAXPROCS set by hand. Fewer processors than
// clients is the box's doing, not the caller's, and the driver's contract
// has no place for a workload that fails: the run goes ahead, says so on
// standard error and carries the warning in its report.
func checkParallelism(workers, nproc int) (warning string, err error) {
	if workers > nproc {
		return "", fmt.Errorf("GOMAXPROCS=%d workers on %d processors: refusing to oversubscribe", workers, nproc)
	}
	if maxClients > nproc {
		return fmt.Sprintf("%d clients on %d processors: oversubscribed, the two-client workloads time the scheduler too", maxClients, nproc), nil
	}
	return "", nil
}

func captureEnv(root, tmp string) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), TempFS: fsName(tmp),
	}
	// The driver's checkout is not a git repository; ask git only where
	// the answer is about this tree.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(b))
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// fsName names the filesystem under dir by its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
