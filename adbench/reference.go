package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host is shared: in busy periods every time the benchmark takes
// (uploads, reads, restarts, writes) runs up to twice as long as in quiet
// ones, for minutes at a time, with little of it showing as steal. To
// keep figures of one build comparable across such periods, a run times
// a fixed reference workload at regular points (the calibrations) and
// reports every time scaled to a host on which that workload takes
// refNominal. Each sample is scaled by the calibrations nearest to it in
// time, since the host changes within a run too:
//
//	scaled sample = measured × refNominal / median(repetitions of the
//	                calNear calibrations nearest the sample)
//
// and a metric is the median of its scaled samples; writes_per_s is
// divided by the factor of all the run's calibrations. The reference uses only the
// Go standard library on inputs built from a fixed seed, and runs in a
// process of its own, so that nothing in the program under test (its
// code, its heap, its collector) changes it. Its mix follows the
// program's: lexing and parsing source text into a tree, indexing names
// in maps, sorting, and JSON and gzip encoding of finding-like rows, on
// one worker per CPU, as the program's parallel phases use them.

// refNominal is the reference time the reported figures are scaled to:
// a round figure, chosen so that scaled figures come near those measured
// on the 2-vCPU host of README.md's reference figures in quiet periods.
const refNominal = 50 * time.Millisecond

// refReps is how many timed repetitions one calibration makes, after one
// untimed warm-up. A repetition varies by 10-20% with the host from one
// second to the next, so the factor is the median over all repetitions
// of a run.
const refReps = 5

// Sizes of the reference workload.
const (
	refFuncs = 1200 // functions in each worker's source text
	refRows  = 8000 // rows each worker encodes
)

// referenceArg is the subcommand that runs the reference workload: it
// reads one line per calibration on standard input and answers each
// with the repetitions' times.
const referenceArg = "reference"

// refInput is one worker's input: Go source text and rows to encode.
type refInput struct {
	src  []byte
	rows []refRow
}

type refRow struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Msg  string `json:"msg"`
}

// newRefInputs builds one input per worker from a fixed seed.
func newRefInputs(workers int) []refInput {
	r := rand.New(rand.NewSource(1))
	ins := make([]refInput, workers)
	for w := range ins {
		var sb strings.Builder
		sb.WriteString("package ref\n")
		for i := 0; i < refFuncs; i++ {
			fmt.Fprintf(&sb, "func f%d(a, b int, s []string) (int, error) {\n"+
				"\tx := a*%d + b\n\tfor i := range s {\n"+
				"\t\tif len(s[i]) > %d {\n\t\t\tx += i\n\t\t} else {\n\t\t\tx -= %d\n\t\t}\n\t}\n"+
				"\tm := map[string]int{\"k%d\": x}\n\treturn m[\"k\"] + x, nil\n}\n",
				i, r.Intn(100), r.Intn(10), r.Intn(10), i)
		}
		rows := make([]refRow, refRows)
		for i := range rows {
			rows[i] = refRow{
				Rule: fmt.Sprintf("R%02d", r.Intn(20)),
				File: fmt.Sprintf("module_%02d/file_%03d.cc", r.Intn(20), r.Intn(500)),
				Line: 1 + r.Intn(300),
				Msg:  "finding message of a typical length for the row",
			}
		}
		ins[w] = refInput{src: []byte(sb.String()), rows: rows}
	}
	return ins
}

// work is one worker's share of one repetition.
func (in refInput) work() error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ref.go", in.src, 0)
	if err != nil {
		return err
	}
	names := map[string]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name]++
		}
		return true
	})
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	raw, err := json.Marshal(in.rows)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(io.Discard)
	if _, err := zw.Write(raw); err != nil {
		return err
	}
	return zw.Close()
}

// referenceTimes runs one calibration on one worker per input, all at
// once: one warm-up, then refReps timed repetitions, each after a forced
// GC and timed until its last worker ends.
func referenceTimes(ins []refInput) ([]time.Duration, error) {
	once := func() (time.Duration, error) {
		runtime.GC()
		errs := make([]error, len(ins))
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range ins {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = ins[i].work()
			}(i)
		}
		wg.Wait()
		d := time.Since(t0)
		return d, errors.Join(errs...)
	}
	if _, err := once(); err != nil {
		return nil, err
	}
	ts := make([]time.Duration, refReps)
	for i := range ts {
		d, err := once()
		if err != nil {
			return nil, err
		}
		ts[i] = d
	}
	return ts, nil
}

// inProcessReference builds the inputs once and runs each calibration in
// the calling process (the benchmark's own tests use it).
func inProcessReference() func() ([]time.Duration, error) {
	var once sync.Once
	var ins []refInput
	return func() ([]time.Duration, error) {
		once.Do(func() { ins = newRefInputs(runtime.NumCPU()) })
		return referenceTimes(ins)
	}
}

// referenceMain is the reference subcommand. It builds the inputs and
// prints "ready", then answers every line read on standard input with one
// line holding the repetitions' times in nanoseconds, and ends at the end
// of its input.
func referenceMain() int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	ins := newRefInputs(runtime.NumCPU())
	fmt.Println("ready")
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		ts, err := referenceTimes(ins)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adbench reference:", err)
			return 1
		}
		fs := make([]string, len(ts))
		for i, d := range ts {
			fs[i] = strconv.FormatInt(d.Nanoseconds(), 10)
		}
		fmt.Println(strings.Join(fs, " "))
	}
	return 0
}

// refChild is the reference subcommand of this executable, running in a
// process of its own for the whole run.
type refChild struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startRefChild starts the child and waits until it has built its
// inputs, so that building them overlaps nothing the run times.
func startRefChild() (*refChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, referenceArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &refChild{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := c.out.ReadString('\n'); err != nil || line != "ready\n" {
		c.close()
		return nil, fmt.Errorf("reference workload did not start: %q %v", line, err)
	}
	return c, nil
}

// times asks the child for one calibration.
func (c *refChild) times() ([]time.Duration, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return nil, fmt.Errorf("reference workload: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("reference workload: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) != refReps {
		return nil, fmt.Errorf("reference workload printed %q", line)
	}
	ts := make([]time.Duration, len(fields))
	for i, f := range fields {
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("reference workload printed %q", line)
		}
		ts[i] = time.Duration(ns)
	}
	return ts, nil
}

// close ends the child's input and waits for it to exit.
func (c *refChild) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// calibration is one timing of the reference workload: its
// repetitions (ms) and the middle of the time it took.
type calibration struct {
	at   time.Time
	reps []float64
}

// calNear is how many calibrations, nearest in time, scale a sample: a
// calibration holds only refReps repetitions, too few to judge the host
// by alone.
const calNear = 3

// calibrate times the reference workload once and keeps the result.
// Traced runs report no end-to-end figures and skip it.
func (b *bench) calibrate() error {
	if b.cfg.trace || b.cfg.reference == nil {
		return nil
	}
	t0 := time.Now()
	ts, err := b.cfg.reference()
	if err != nil {
		return err
	}
	c := calibration{at: t0.Add(time.Since(t0) / 2)}
	for _, d := range ts {
		c.reps = append(c.reps, ms(d))
	}
	b.calMu.Lock()
	b.cals = append(b.cals, c)
	b.lastCal = time.Now()
	b.calMu.Unlock()
	return nil
}

// calibrationDue reports whether calEvery has passed since the last
// calibration.
func (b *bench) calibrationDue() bool {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	return time.Since(b.lastCal) >= calEvery
}

// calEvery is how often a timed phase stops for a calibration.
const calEvery = 3 * time.Second

// hostFactor is refNominal over the median repetition of all the run's
// calibrations; 1 when there are none.
func (b *bench) hostFactor() float64 {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	var reps []float64
	for _, c := range b.cals {
		reps = append(reps, c.reps...)
	}
	if len(reps) == 0 {
		return 1
	}
	return ms(refNominal) / median(reps)
}

// factorAt is refNominal over the median repetition of the calNear
// calibrations nearest to t; 1 when there are none.
func (b *bench) factorAt(t time.Time) float64 {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	if len(b.cals) == 0 {
		return 1
	}
	dist := func(c calibration) time.Duration {
		if d := c.at.Sub(t); d >= 0 {
			return d
		}
		return t.Sub(c.at)
	}
	near := append([]calibration(nil), b.cals...)
	sort.SliceStable(near, func(i, j int) bool { return dist(near[i]) < dist(near[j]) })
	if len(near) > calNear {
		near = near[:calNear]
	}
	var reps []float64
	for _, c := range near {
		reps = append(reps, c.reps...)
	}
	return ms(refNominal) / median(reps)
}

// scaledMedian is the median of samples each scaled by the factor at the
// time it was taken.
func (b *bench) scaledMedian(xs []float64, at []time.Time) float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x * b.factorAt(at[i])
	}
	return median(s)
}
