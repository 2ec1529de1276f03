// Command adbench measures adserve end to end and layer by layer.
//
// One run drives an in-process adserve (persistent data directory on
// disk, loopback listener, GOMAXPROCS = nproc) with one of three seeded
// workloads over the corpusgen 10k-file corpus, checks every output
// against the corpusgen ground-truth manifest, and prints its metrics:
//
//	adbench --workload cold|edit|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a traced in-process replay of the same operations. The
// steadiness command repeats runs and prints medians, quartiles and
// spreads next to the bounds in BENCHMARK.json:
//
//	adbench steady --workload edit --runs 10 [--a DIR --b DIR]
//
// README.md lists the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/corpusgen"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == referenceArg {
		os.Exit(referenceMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// corpusParams is the 10k-file corpus: 20 modules × (499 C++ + 1 CUDA)
// files, 3 filler functions and 2 injected violations per file — the
// shape the repository's cold and delta benchmarks use.
var corpusParams = corpusgen.Params{Modules: 20, FilesPerModule: 499,
	FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// work is the directory the run keeps its data directories and span
	// files under (inside the checkout).
	work   string
	params corpusgen.Params
	// setups is how many times the run sets up from scratch; setup_s is
	// the median.
	setups int
	// tamper and dropRow corrupt the reference manifest or the rows read
	// back from /findings; the benchmark's own tests use them to show
	// that the checks catch a wrong answer.
	tamper  func(*corpusgen.Manifest)
	dropRow bool
	// reference times the reference workload for a calibration (see
	// reference.go); nil makes none, and the figures are unscaled.
	reference func() ([]time.Duration, error)
	out       io.Writer
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("adbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: cold, edit or churn")
	seed := fl.Int64("seed", 26262, "seed of the corpus and of the edit and mutation sequences")
	seconds := fl.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced in-process replay and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: adbench --workload cold|edit|churn --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     filepath.Join(".bench_build", "work"),
		params:   corpusParams,
		setups:   3,
		out:      stdout,
	}
	if !cfg.trace {
		child, err := startRefChild()
		if err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			return 1
		}
		defer child.close()
		cfg.reference = child.times
	}
	if cfg.trace {
		// The traced run replays its HTTP phase four times in-process
		// (see replayOrder); a fifth of the time keeps the five phases
		// within the run's length.
		cfg.setups = 1
		cfg.seconds = (cfg.seconds + 4*time.Second) / 5
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run executes one workload in a fresh work directory and returns its
// result line.
func run(cfg config) (*result, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := machineInfo(dir)
	mline, _ := json.Marshal(m)
	fmt.Fprintf(cfg.out, "machine %s\n", mline)

	b := newBench(cfg, dir)
	if cfg.trace {
		b.log = &opLog{}
	}
	if err := b.runWorkload(); err != nil {
		b.shutdown()
		return nil, err
	}
	res := &result{
		Correct:   b.chk.ok(),
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
	}
	if !cfg.trace {
		res.Metrics = b.endToEnd()
		return res, nil
	}
	lm, err := b.traceLayers()
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && b.chk.ok()
	res.Metrics = lm
	return res, nil
}

// printMetrics writes one human-readable line per metric, sorted, with
// the sample counts and tails behind each median where there are any.
func printMetrics(w io.Writer, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-30s %14.4f %-6s %s\n", n, ms[n].Value, ms[n].Unit, notes[n])
	}
}
