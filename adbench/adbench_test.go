package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/corpusgen"
	"repro/internal/service"
)

// tinyParams is a corpus small enough to run every workload in a test.
var tinyParams = corpusgen.Params{Modules: 4, FilesPerModule: 6,
	FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}

func tinyConfig(t *testing.T, workload string) config {
	return config{
		workload:  workload,
		seed:      26262,
		seconds:   300 * time.Millisecond,
		work:      t.TempDir(),
		params:    tinyParams,
		setups:    2,
		reference: inProcessReference(),
		out:       io.Discard,
	}
}

func TestRotateDigit(t *testing.T) {
	g := corpusgen.New(tinyParams, 1)
	src := g.Source(ccFiles(g)[0][0])
	for k := 0; k < 3; k++ {
		got, ok := rotateDigit(src, k)
		if !ok || got == src || len(got) != len(src) {
			t.Fatalf("filler %d: rotation failed", k)
		}
		diff := 0
		for i := range src {
			if src[i] != got[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("filler %d: %d bytes changed, want 1", k, diff)
		}
	}
	if _, ok := rotateDigit("int main() { return 0; }\n", 0); ok {
		t.Fatal("rotated a file without filler functions")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// The 10k reference corpus: seed 26262 gives 22,882 expected findings.
func TestReferenceCorpusTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 10k-file corpus")
	}
	if got := corpusgen.New(corpusParams, 26262).Manifest().Total(); got != 22882 {
		t.Fatalf("manifest total %d, want 22882", got)
	}
}

// Every workload runs to its end on honest output, attempts operations,
// fails none and reports every end-to-end metric, none of them 0.
func TestWorkloadsCorrect(t *testing.T) {
	for _, w := range []string{"cold", "edit", "churn"} {
		t.Run(w, func(t *testing.T) {
			res, err := run(tinyConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range []string{"setup_s", "assess_s", "restart_ms", "findings_p50_ms", "report_p50_ms",
				"write_p50_ms", "writes_per_s", "compact_ms", "heap_live_mb", "snapshot_mb"} {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value", name, m)
				}
			}
			if len(res.Metrics) != 10 {
				t.Errorf("%d metrics, want 10", len(res.Metrics))
			}
		})
	}
}

// The traced run reports every per-layer metric on every workload.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range []string{"cold", "edit", "churn"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			cfg.trace, cfg.setups = true, 1
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("traced run incorrect")
			}
			var want []string
			for _, sm := range spanMetrics {
				want = append(want, sm.metric)
			}
			for _, cm := range countMetrics {
				want = append(want, cm.name)
			}
			want = append(want, "go.gc_cycles_per_op", "store.fsyncs_per_write",
				"total.http_s", "total.replay_s", "total.traced_s", "trace.overhead_pct")
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("missing per-layer metric %s", name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(want))
			}
		})
	}
}

// Times are scaled by refNominal over the median repetition of the
// calibrations nearest each sample, and writes_per_s by the inverse of
// the run's factor; sizes are not scaled.
func TestHostFactorScalesTimes(t *testing.T) {
	b := newBench(tinyConfig(t, "edit"), t.TempDir())
	t0 := time.Now()
	nominal := ms(refNominal)
	// The host is twice as slow as nominal at t0 and as fast as nominal
	// an hour later; each sample is scaled by the calibrations near it.
	for i := 0; i < calNear; i++ {
		b.cals = append(b.cals,
			calibration{at: t0, reps: []float64{2*nominal - 10, 2 * nominal, 2*nominal + 10}},
			calibration{at: t0.Add(time.Hour), reps: []float64{nominal}})
	}
	// The first set-up's upload is left out of assess_s.
	b.setupTimes, b.setupAssess, b.setupAt = []float64{3, 3}, []float64{9, 2}, []time.Time{t0, t0}
	b.samples["write_p50_ms"] = []float64{10, 10, 10}
	b.stamps["write_p50_ms"] = []time.Time{t0, t0, t0.Add(time.Hour)}
	b.samples["restart_ms"] = []float64{80}
	b.stamps["restart_ms"] = []time.Time{t0.Add(time.Hour)}
	b.writes, b.writeSpan = 50, time.Second
	b.heapLive, b.snapBytes = 100, 25e6
	m := b.endToEnd()
	f := b.hostFactor()
	for name, want := range map[string]float64{"setup_s": 1.5, "assess_s": 1,
		"write_p50_ms": 5, "restart_ms": 80, "writes_per_s": 50 / f, "heap_live_mb": 100, "snapshot_mb": 25} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// The reference workload runs and takes a positive time.
func TestReferenceRuns(t *testing.T) {
	ts, err := inProcessReference()()
	if err != nil || len(ts) != refReps {
		t.Fatalf("reference times %v, %v", ts, err)
	}
	for _, d := range ts {
		if d <= 0 {
			t.Fatalf("reference times %v", ts)
		}
	}
}

// A tampered manifest entry fails every workload.
func TestTamperedManifestFails(t *testing.T) {
	for _, w := range []string{"cold", "edit", "churn"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			cfg.tamper = func(m *corpusgen.Manifest) {
				for p, es := range m.PerFile {
					if len(es) > 0 && strings.HasSuffix(p, ".cc") {
						es[0].Line++
						return
					}
				}
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("a tampered manifest entry passed the checks")
			}
		})
	}
}

// A dropped /findings row fails every workload.
func TestDroppedRowFails(t *testing.T) {
	for _, w := range []string{"cold", "edit", "churn"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			cfg.dropRow = true
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("a dropped finding row passed the checks")
			}
		})
	}
}

// checkRows is a multiset comparison: a duplicated row in place of a
// missing one is caught although the count matches.
func TestCheckRowsMultiset(t *testing.T) {
	man := corpusgen.New(tinyParams, 3).Manifest()
	var rows []service.FindingRow
	for _, e := range man.All() {
		rows = append(rows, service.FindingRow{Rule: e.Rule, File: e.Path, Line: e.Line})
	}
	if err := checkRows(rows, man); err != nil {
		t.Fatalf("rows built from the manifest: %v", err)
	}
	rows[1] = rows[0]
	if err := checkRows(rows, man); err == nil {
		t.Fatal("a duplicated row in place of another passed")
	}
}

// The replay builds each projection once per assessor generation, as
// the handlers do, and encodes it on every read.
func TestReplayProjectionCache(t *testing.T) {
	g := corpusgen.New(tinyParams, 26262)
	files := map[string]string{}
	for _, p := range g.Paths() {
		files[p] = g.Source(p)
	}
	body, err := json.Marshal(service.AssessRequest{Corpus: corpusName, Files: files})
	if err != nil {
		t.Fatal(err)
	}
	path := ccFiles(g)[0][0]
	src, _ := rotateDigit(g.Source(path), 0)
	delta, err := json.Marshal(service.DeltaRequest{Corpus: corpusName, Changed: map[string]string{path: src}})
	if err != nil {
		t.Fatal(err)
	}
	total, n := g.Manifest().Total(), g.Len()
	ops := []op{
		{kind: opAssess, body: body, total: total, files: n},
		{kind: opReport}, {kind: opReport}, {kind: opFindings}, {kind: opFindings},
		{kind: opDelta, body: delta, total: total, files: n, checked: 1},
		{kind: opReport}, {kind: opFindings}, {kind: opReport},
	}
	r := newReplayer(t.TempDir(), true)
	if err := r.run(ops); err != nil {
		t.Fatal(err)
	}
	defer r.close()
	got := map[string]int{}
	for _, s := range r.spans {
		got[s.Name]++
	}
	for name, want := range map[string]int{"service.report": 2, "service.rows": 2,
		"service.report_json": 4, "service.json": 3, "service.gzip": 3} {
		if got[name] != want {
			t.Errorf("%d %s spans, want %d", got[name], name, want)
		}
	}
}
