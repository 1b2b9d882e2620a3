// Command bench is deepbench, the repository's one benchmark: three
// workloads over a deterministic bulkgen snapshot, measured end to end
// through /v1/search on a loopback port and, in a separate traced run,
// layer by layer through each module's public entry points. README.md
// in this directory says what each workload and metric is for.
//
// The driver's form runs one workload once and prints the result as
// the last line of standard output:
//
//	go run ./bench --workload keyword-miss --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs every workload, untraced then traced, and
// writes bench/out/results.json. -selfcheck runs every workload on
// several seeds, twice, and fails unless each end-to-end metric's
// spread and drift stay within its bound; -compare judges two results
// files against the same bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"deepweb/internal/engine"
)

// asMainEnv makes a re-executed test binary behave as this command
// (see TestMain); the command itself ignores it.
const asMainEnv = "DEEPBENCH_AS_MAIN"

// runSeconds is how long one run measures unless --seconds says
// otherwise; BENCHMARK.json's run_seconds is this number.
const runSeconds = 20

func main() { os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr)) }

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run this one workload and print its result line (default: all of them)")
		seed      = fs.Int64("seed", 1, "seed every input is generated from")
		seconds   = fs.Float64("seconds", runSeconds, "how long the measured phase lasts")
		trace     = fs.Int("trace", 0, "1 = traced run, reporting the per-layer metrics in place of the end-to-end ones")
		smoke     = fs.Bool("smoke", false, "3000-document corpus and small pools: exercises every path in a second, measures nothing")
		outDir    = fs.String("out", filepath.Join("bench", "out"), "directory for temporary snapshots, traces and results")
		goldenAt  = fs.String("golden", filepath.Join("bench", "golden.json"), "recorded answer digests of the default seed")
		update    = fs.Bool("update-golden", false, "record this run's answer digests in place of checking them")
		selfcheck = fs.Bool("selfcheck", false, "run every workload on ten seeds, twice; fail unless spread and drift stay within the bounds")
		compare   = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
		spec      = fs.Bool("spec", false, "print BENCHMARK.json")
		child     = fs.String("child-load", "", "internal: load this snapshot, report what it cost, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	engine.DefaultWorkers = runtime.GOMAXPROCS(0)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var wl *mix
	if *name != "" {
		if wl = workloadByName(*name); wl == nil {
			return fail(fmt.Errorf("no workload %q", *name))
		}
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir, golden: *goldenAt, update: *update}
	switch {
	case *spec:
		stdout.Write(benchmarkJSON(runSeconds))
		return 0
	case *child != "":
		if wl == nil {
			return fail(fmt.Errorf("-child-load needs -workload"))
		}
		if err := childLoad(*child, wl, *seed, cfg.sizes()); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	case *selfcheck:
		ok, err := selfCheck(ctx, cfg, stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case wl == nil:
		set, err := runAll(ctx, cfg, []int64{*seed}, []int{0, 1}, stdout)
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(*outDir, "results.json")
		if err := writeJSON(path, set); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "wrote", path)
		if !set.correct() {
			return 1
		}
		return 0
	}

	res, err := runWorkload(ctx, cfg, stdout)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// record is one run of a results file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultSet is a results file: every run of one invocation, with what
// they ran on.
type resultSet struct {
	GOARCH  string   `json:"goarch"`
	Cores   int      `json:"cores"`
	Docs    int      `json:"docs"`
	Seconds float64  `json:"seconds"`
	Runs    []record `json:"runs"`
}

func (s *resultSet) correct() bool {
	for _, r := range s.Runs {
		if !r.Result.Correct {
			return false
		}
	}
	return true
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (*resultSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values returns one end-to-end metric's value in each untraced run of
// one workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			xs = append(xs, r.Result.Metrics[metric].Value)
		}
	}
	return xs
}

// runAll runs every workload for every seed and trace mode, each run
// in a process of its own exactly as the driver starts one, so no run
// inherits another's heap.
func runAll(ctx context.Context, cfg runConfig, seeds []int64, traces []int, stdout io.Writer) (*resultSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{GOARCH: runtime.GOARCH, Cores: runtime.GOMAXPROCS(0), Docs: cfg.sizes().docs, Seconds: cfg.seconds}
	for _, wl := range workloads {
		for _, seed := range seeds {
			for _, trace := range traces {
				args := []string{
					"-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-out", cfg.outDir, "-golden", cfg.golden,
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				if cfg.update {
					args = append(args, "-update-golden")
				}
				cmd := exec.CommandContext(ctx, exe, args...)
				// An interrupted run removes its snapshots on the way out;
				// killing it outright would leave them.
				cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
				cmd.WaitDelay = 10 * time.Second
				cmd.Env = append(os.Environ(), asMainEnv+"=1")
				cmd.Stderr = os.Stderr
				var out bytes.Buffer
				cmd.Stdout = io.MultiWriter(&out, stdout)
				runErr := cmd.Run()
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					if runErr != nil {
						err = runErr
					}
					return nil, fmt.Errorf("%s seed %d trace %d: no result line: %w", wl.name, seed, trace, err)
				}
				set.Runs = append(set.Runs, record{wl.name, seed, trace, res})
			}
		}
	}
	return set, ctx.Err()
}
