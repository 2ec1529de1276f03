package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	Command  []string `json:"command"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	RunSeconds int `json:"run_seconds"`
}

// steadyMain repeats a workload and prints, for every end-to-end
// metric, the median, the quartiles and the spread (interquartile
// distance over the median) next to the metric's bound. Every run lasts
// the run_seconds of --a's BENCHMARK.json, on both sides. With --b it
// alternates two checkouts pair by pair, each pair on one seed, and
// prints each side's median and quartiles and how many pairs each side
// won.
func steadyMain(args []string) int {
	fl := flag.NewFlagSet("adbench steady", flag.ContinueOnError)
	workload := fl.String("workload", "edit", "workload to repeat")
	runs := fl.Int("runs", 10, "runs (pairs, with --b)")
	seed0 := fl.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	dirA := fl.String("a", ".", "checkout to measure")
	dirB := fl.String("b", "", "second checkout, alternated with --a pair by pair")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	bf, err := readBenchFile(*dirA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adbench steady:", err)
		return 1
	}
	sides := []string{*dirA}
	if *dirB != "" {
		sides = append(sides, *dirB)
	}
	vals := make([]map[string][]float64, len(sides))
	for i := range vals {
		vals[i] = map[string][]float64{}
	}
	failShare := make([][]string, len(sides))
	classes := map[string]bool{}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		order := []int{0}
		if len(sides) == 2 {
			order = []int{i % 2, 1 - i%2}
		}
		for _, s := range order {
			t0 := time.Now()
			res, class, err := runOnce(bf.Command, sides[s], *workload, seed, bf.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "adbench steady: %s seed %d: %v\n", sides[s], seed, err)
				return 1
			}
			classes[class] = true
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "adbench steady: %s seed %d: incorrect result\n", sides[s], seed)
				return 1
			}
			failShare[s] = append(failShare[s], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				vals[s][name] = append(vals[s][name], m.Value)
			}
			fmt.Printf("run %s seed %d (%.1fs): %s\n", sides[s], seed, time.Since(t0).Seconds(), summaryLine(res))
		}
	}
	if len(classes) > 1 {
		// Single-core and multi-core figures are never pooled.
		fmt.Fprintln(os.Stderr, "adbench steady: runs came from machines of different classes")
		return 1
	}
	fmt.Printf("\nworkload %s, %d runs per side, %ds each\n", *workload, *runs, bf.RunSeconds)
	for s, side := range sides {
		fmt.Printf("side %s: failed/attempted %s\n", side, strings.Join(failShare[s], " "))
	}
	fmt.Printf("%-18s %-5s %-6s %12s %12s %12s %8s %6s %s\n", "metric", "side", "unit", "q1", "median", "q3", "spread", "bound", "")
	for _, e := range bf.EndToEnd {
		for s := range sides {
			xs := vals[s][e.Name]
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case spread > e.Bound:
				verdict = "WIDER THAN BOUND"
			case spread > e.Bound/3:
				verdict = "above a third of bound"
			}
			fmt.Printf("%-18s %-5s %-6s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n",
				e.Name, string(rune('A'+s)), e.Unit, q1, q2, q3, spread, e.Bound, verdict)
		}
		if len(sides) == 2 {
			a, b := vals[0][e.Name], vals[1][e.Name]
			winsB := 0
			for i := range a {
				if i < len(b) && ((e.Better == "lower" && b[i] < a[i]) || (e.Better == "higher" && b[i] > a[i])) {
					winsB++
				}
			}
			fmt.Printf("%-18s B better than A in %d of %d pairs\n", e.Name, winsB, len(a))
		}
	}
	return 0
}

func readBenchFile(dir string) (*benchFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runOnce runs the benchmark command in a checkout and parses its last
// output line and machine record.
func runOnce(command []string, dir, workload string, seed int64, seconds int) (*result, string, error) {
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, "", fmt.Errorf("last line: %w", err)
	}
	class := "unknown"
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "machine "); ok {
			var m machine
			if json.Unmarshal([]byte(rest), &m) == nil {
				class = m.Class
			}
		}
	}
	return &res, class, nil
}

func summaryLine(res *result) string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&buf, "%s=%.4g ", n, res.Metrics[n].Value)
	}
	return strings.TrimSpace(buf.String())
}
