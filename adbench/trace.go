package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cclex"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// opKind names the operations a run issues.
type opKind int

const (
	opAssess opKind = iota
	opDelta
	opReport
	opFindings
	opSnapshot
	opRestart
	opCopy
)

var opNames = [...]string{"assess", "delta", "report", "findings", "snapshot", "restart", "copy"}

// op is one logged operation of a traced run's HTTP phase: enough to
// replay it in-process and to check the replay's answer.
type op struct {
	kind opKind
	body []byte // the request body of assess and delta
	// total and files are the expected findings and corpus size after
	// the operation (assess, delta, restart); checked is the expected
	// number of files the rule engine re-checks on a delta (0: any).
	total, files, checked int
	// copy names the crash copy an opCopy makes or an opRestart
	// restarts from ("" restarts from the data directory).
	copy     string
	replayed int
	http     time.Duration // the operation's time over HTTP
}

// opLog is the operations of a traced run in completion order. The two
// edit clients edit disjoint files, so completion order is a valid
// serial order.
type opLog struct {
	mu  sync.Mutex
	ops []op
}

func (b *bench) logOp(o op, d time.Duration) {
	if b.log == nil {
		return
	}
	o.http = d
	b.log.mu.Lock()
	b.log.ops = append(b.log.ops, o)
	b.log.mu.Unlock()
}

// span is one timed call into a layer during the traced replay.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// replayer executes logged operations in-process through the same
// public calls the handlers make, optionally recording spans around
// every call into a layer.
type replayer struct {
	traced bool
	dir    string // replay data directory root
	a      *core.Assessor
	cs     *store.CorpusStore
	t0     time.Time

	op     int
	spans  []span
	stack  []int
	counts []map[string]float64 // per operation: counted per-layer values
	totals []time.Duration      // per operation: wall time less passes
	passes time.Duration        // time spent in the separate passes so far

	// The projection cache of the handlers' renderedReport and
	// renderedFindings: built at most once per assessor generation.
	projA        *core.Assessor
	projGen      uint64
	projReport   *service.ReportResponse
	projFindings *service.FindingsResponse
}

func newReplayer(dir string, traced bool) *replayer {
	return &replayer{traced: traced, dir: dir, t0: time.Now()}
}

// span runs fn as a span named name; untraced replays just run fn.
func (r *replayer) span(name string, fn func() error) error {
	if !r.traced {
		return fn()
	}
	id := len(r.spans)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name, Start: time.Since(r.t0).Nanoseconds()})
	r.stack = append(r.stack, id)
	err := fn()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	return err
}

// pass runs fn as a span named name, as a pass of the replay's own that
// the handlers do not make. Every replay runs it, so that its side
// effects (allocation, GC, warm caches) fall on traced and untraced
// replays alike, and its time is taken out of the operation's total.
func (r *replayer) pass(name string, fn func()) {
	t0 := time.Now()
	_ = r.span(name, func() error { fn(); return nil })
	r.passes += time.Since(t0)
}

// count records a counted per-layer value of the current operation.
func (r *replayer) count(name string, v float64) {
	r.counts[r.op][name] += v
}

// run replays every operation, checking each answer.
func (r *replayer) run(ops []op) error {
	r.counts = make([]map[string]float64, len(ops))
	r.totals = make([]time.Duration, len(ops))
	var ms0, ms1 runtime.MemStats
	for i, o := range ops {
		r.op = i
		r.counts[i] = map[string]float64{}
		if r.traced {
			runtime.ReadMemStats(&ms0)
		}
		t0, p0 := time.Now(), r.passes
		if err := r.exec(o); err != nil {
			return fmt.Errorf("replay op %d (%s): %w", i, opNames[o.kind], err)
		}
		r.totals[i] = time.Since(t0) - (r.passes - p0)
		if r.traced {
			runtime.ReadMemStats(&ms1)
			r.count("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
			if o.kind == opDelta {
				r.count("go.alloc_mb_per_write", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
			}
		}
	}
	return nil
}

// stage wraps the journal stage the service installs as commit hook.
func (r *replayer) stage(changed []*srcfile.File, removed []string) error {
	return r.span("store.stage", func() error { return r.cs.Stage(changed, removed) })
}

// persist writes a snapshot as the service does on /assess, /snapshot
// and shutdown; the encode is also timed as a pass of its own.
func (r *replayer) persist() error {
	var st *core.PersistedState
	if err := r.span("store.export", func() (err error) {
		st, err = r.a.ExportState()
		return err
	}); err != nil {
		return err
	}
	// A pass of its own: WriteSnapshot encodes again inside.
	r.pass("store.encode", func() { store.EncodeSnapshot(st, 1) })
	return r.span("store.snapshot_write", func() error {
		_, err := r.cs.WriteSnapshot(st)
		return err
	})
}

func (r *replayer) corpusStore(dir string) (*store.CorpusStore, error) {
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return d.Corpus(corpusName)
}

// lex times the lexer over files as a pass of its own (the parser
// lexes again inside), reusing one token buffer.
func (r *replayer) lex(files []*srcfile.File) {
	r.pass("cclex.lex", func() {
		var buf []cclex.Token
		for _, f := range files {
			lx := cclex.New(f.Src)
			lx.CUDA = f.Lang == srcfile.LangCUDA
			buf = lx.AllInto(buf[:0])
		}
	})
}

// analyze runs the rule walk, the metrics fold and the verdicts, as the
// service does after a load or a commit.
func (r *replayer) analyze() error {
	if err := r.span("rules.run", func() error { r.a.Findings(); return nil }); err != nil {
		return err
	}
	if err := r.span("metrics.analyze", func() error { r.a.Metrics(); r.a.Arch(); return nil }); err != nil {
		return err
	}
	return r.span("core.verdicts", func() error { r.a.Assess(); return nil })
}

func (r *replayer) checkState(o op) error {
	if got := r.a.Stats().Total; got != o.total {
		return fmt.Errorf("%d findings, want %d", got, o.total)
	}
	if got := r.a.FileSet().Len(); got != o.files {
		return fmt.Errorf("%d files, want %d", got, o.files)
	}
	return nil
}

func (r *replayer) exec(o op) error {
	switch o.kind {
	case opAssess:
		return r.assess(o)
	case opDelta:
		return r.delta(o)
	case opReport:
		return r.report()
	case opFindings:
		return r.findings()
	case opSnapshot:
		return r.persist()
	case opCopy:
		return copyFiles(filepath.Join(r.dir, "data", corpusName), filepath.Join(r.dir, o.copy, corpusName))
	case opRestart:
		return r.restart(o)
	}
	return fmt.Errorf("unknown op %d", o.kind)
}

func (r *replayer) assess(o op) error {
	var req service.AssessRequest
	if err := r.span("service.decode", func() error { return json.Unmarshal(o.body, &req) }); err != nil {
		return err
	}
	paths := make([]string, 0, len(req.Files))
	for p := range req.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fs := srcfile.NewFileSet()
	for _, p := range paths {
		fs.AddSource(p, req.Files[p])
	}
	r.lex(fs.Files())
	a := core.NewAssessor(core.DefaultConfig())
	var m0, m1 runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&m0)
	}
	if err := r.span("ccparse.parse", func() error { return a.LoadFileSet(fs) }); err != nil {
		return err
	}
	if r.traced {
		runtime.ReadMemStats(&m1)
		r.count("ccparse.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		r.count("ccparse.allocs_k", float64(m1.Mallocs-m0.Mallocs)/1e3)
	}
	if err := r.span("artifact.build", func() error { a.Index(); return nil }); err != nil {
		return err
	}
	if r.cs != nil {
		if err := r.cs.Close(); err != nil {
			return err
		}
	}
	r.a = a
	if err := r.analyze(); err != nil {
		return err
	}
	cs, err := r.corpusStore(filepath.Join(r.dir, "data"))
	if err != nil {
		return err
	}
	r.cs = cs
	if err := r.persist(); err != nil {
		return err
	}
	a.SetCommitHook(r.stage)
	return r.checkState(o)
}

func (r *replayer) delta(o op) error {
	var req service.DeltaRequest
	if err := r.span("service.decode", func() error { return json.Unmarshal(o.body, &req) }); err != nil {
		return err
	}
	d := core.Delta{Removed: req.Removed}
	paths := make([]string, 0, len(req.Changed))
	for p := range req.Changed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		d.Changed = append(d.Changed, &srcfile.File{Path: p, Src: req.Changed[p], Lang: srcfile.LanguageForPath(p)})
	}
	r.lex(d.Changed)
	jb := r.cs.JournalBytes()
	var pd *core.PreparedDelta
	if err := r.span("core.prepare", func() (err error) {
		pd, err = r.a.PrepareDelta(d)
		return err
	}); err != nil {
		return err
	}
	var res *core.DeltaResult
	if err := r.span("core.commit", func() (err error) {
		res, err = r.a.CommitDelta(pd)
		return err
	}); err != nil {
		return err
	}
	r.count("artifact.dirty_shards", float64(res.DirtyShards))
	if err := r.analyze(); err != nil {
		return err
	}
	ops := len(req.Changed) + len(req.Removed)
	checked := r.a.RuleFilesChecked()
	r.count("rules.files_checked_per_file", float64(checked)/float64(ops))
	if err := r.span("store.sync", func() error {
		_, err := r.cs.SyncBarrier()()
		return err
	}); err != nil {
		return err
	}
	r.count("store.journal_kb_per_write", float64(r.cs.JournalBytes()-jb)/1e3)
	if o.checked > 0 && checked != o.checked {
		return fmt.Errorf("re-checked %d files, want %d", checked, o.checked)
	}
	return r.checkState(o)
}

// invalidateProj drops the cached projections when the assessor or its
// generation has changed since they were built.
func (r *replayer) invalidateProj() {
	if r.projA != r.a || r.projGen != r.a.Gen() {
		r.projA, r.projGen = r.a, r.a.Gen()
		r.projReport, r.projFindings = nil, nil
	}
}

// report serves /report as the handler does: the report is built only
// when the generation has changed, and encoded on every read.
func (r *replayer) report() error {
	r.invalidateProj()
	if r.projReport == nil {
		_ = r.span("service.report", func() error {
			rep := service.BuildReport(corpusName, r.a)
			r.projReport = &rep
			return nil
		})
	}
	_, _, err := r.encode("service.report_json", "service.report_gzip", r.projReport)
	return err
}

// findings serves /findings as the handler does: the rows are built
// only when the generation has changed, and encoded on every read.
func (r *replayer) findings() error {
	r.invalidateProj()
	if r.projFindings == nil {
		_ = r.span("service.rows", func() error {
			rows := service.FindingRows(r.a.Findings())
			r.projFindings = &service.FindingsResponse{Corpus: corpusName, Count: len(rows), Findings: rows}
			return nil
		})
	}
	raw, gz, err := r.encode("service.json", "service.gzip", r.projFindings)
	if err != nil {
		return err
	}
	r.count("service.findings_kb", float64(raw)/1e3)
	r.count("service.findings_gzip_kb", float64(gz)/1e3)
	return nil
}

// encode encodes v as JSON and gzips it, as a gzip read does, in two
// spans; it returns both sizes.
func (r *replayer) encode(jsonSpan, gzipSpan string, v interface{}) (raw, gz int, err error) {
	var body []byte
	if err := r.span(jsonSpan, func() (err error) {
		body, err = json.Marshal(v)
		return err
	}); err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if err := r.span(gzipSpan, func() error {
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(body); err != nil {
			return err
		}
		return zw.Close()
	}); err != nil {
		return 0, 0, err
	}
	return len(body), buf.Len(), nil
}

// restart shuts the corpus down as the service's Close does, then
// restores it from the data directory (or a crash copy) as NewWithStore
// does, splitting the recovery into its layers, and renders the first
// report.
func (r *replayer) restart(o op) error {
	if err := r.persist(); err != nil {
		return err
	}
	if err := r.cs.MarkClean(); err != nil {
		return err
	}
	if err := r.cs.Close(); err != nil {
		return err
	}
	r.a.SetCommitHook(nil)
	r.a = nil
	dir := filepath.Join(r.dir, "data")
	if o.copy != "" {
		dir = filepath.Join(r.dir, o.copy)
	}
	cs, err := r.corpusStore(dir)
	if err != nil {
		return err
	}
	r.cs = cs
	var snap *store.Snapshot
	if err := r.span("store.open", func() (err error) {
		snap, _, err = cs.OpenCurrent()
		return err
	}); err != nil {
		return err
	}
	if err := r.span("core.restore", func() (err error) {
		r.a, err = core.RestoreAssessorFrom(core.DefaultConfig(), snap)
		return err
	}); err != nil {
		return err
	}
	replayed := 0
	if err := r.span("store.replay", func() error {
		_, _, err := cs.ReadJournal(func(gen uint64, changed []*srcfile.File, removed []string) error {
			if gen != snap.Gen() {
				return nil
			}
			replayed++
			_, err := r.a.ApplyDelta(core.Delta{Changed: changed, Removed: removed})
			return err
		})
		return err
	}); err != nil {
		return err
	}
	r.count("store.replay_records", float64(replayed))
	if err := r.span("core.restore", func() error { r.a.Findings(); r.a.Metrics(); return nil }); err != nil {
		return err
	}
	if err := r.report(); err != nil {
		return err
	}
	r.a.SetCommitHook(r.stage)
	if replayed != o.replayed {
		return fmt.Errorf("replayed %d journal records, want %d", replayed, o.replayed)
	}
	return r.checkState(o)
}

// close releases the replay's store.
func (r *replayer) close() error {
	if r.cs == nil {
		return nil
	}
	return r.cs.Close()
}

func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"snapshot", "journal"} {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// spanMetrics maps span names to the per-layer metric of their median
// self time and its unit.
var spanMetrics = []struct {
	span, metric string
	scale        float64 // nanoseconds per unit
}{
	{"cclex.lex", "cclex.lex_ms", 1e6},
	{"ccparse.parse", "ccparse.parse_ms", 1e6},
	{"artifact.build", "artifact.build_ms", 1e6},
	{"rules.run", "rules.run_ms", 1e6},
	{"metrics.analyze", "metrics.analyze_ms", 1e6},
	{"core.verdicts", "core.verdicts_ms", 1e6},
	{"core.prepare", "core.prepare_ms", 1e6},
	{"core.commit", "core.commit_ms", 1e6},
	{"core.restore", "core.restore_ms", 1e6},
	{"service.decode", "service.decode_ms", 1e6},
	{"service.report", "service.report_ms", 1e6},
	{"service.rows", "service.rows_ms", 1e6},
	{"service.json", "service.json_ms", 1e6},
	{"service.gzip", "service.gzip_ms", 1e6},
	{"store.export", "store.export_ms", 1e6},
	{"store.encode", "store.encode_ms", 1e6},
	{"store.snapshot_write", "store.snapshot_write_ms", 1e6},
	{"store.open", "store.open_ms", 1e6},
	{"store.replay", "store.replay_ms", 1e6},
	{"store.stage", "store.stage_us", 1e3},
	{"store.sync", "store.sync_ms", 1e6},
}

// countMetrics are the counted per-layer metrics and their units; each
// is the median over the operations that count it.
var countMetrics = []struct{ name, unit string }{
	{"ccparse.alloc_mb", "MB"},
	{"ccparse.allocs_k", "k"},
	{"rules.files_checked_per_file", "count"},
	{"artifact.dirty_shards", "count"},
	{"service.findings_kb", "kB"},
	{"service.findings_gzip_kb", "kB"},
	{"store.replay_records", "count"},
	{"store.journal_kb_per_write", "kB"},
	{"go.alloc_mb_per_write", "MB"},
}

// replayOrder is the order of the in-process replays: untraced, traced,
// traced, untraced, so that the traced and the untraced replays have
// the same mean position and drift within the run does not bias the
// tracing overhead.
var replayOrder = []bool{false, true, true, false}

// traceLayers replays the HTTP phase's operations in-process in
// replayOrder and derives the per-layer metrics from the first traced
// replay's spans. It prints the three totals of every operation kind
// (HTTP, the mean of the untraced replays, the mean of the traced
// replays), the tracing overhead with its range, and writes the spans
// to a file.
func (b *bench) traceLayers() (map[string]metric, error) {
	ops := b.log.ops
	reps := make([]*replayer, len(replayOrder))
	for i, traced := range replayOrder {
		runtime.GC()
		r := newReplayer(filepath.Join(b.dir, fmt.Sprintf("replay-%d", i)), traced)
		err := r.run(ops)
		if err == nil && i == 1 {
			if oerr := difftest.CheckOracle(r.a.Findings(), b.man); oerr != nil {
				b.chk.failf("traced replay: %v", oerr)
			}
		}
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.chk.failf("%v", err)
			return nil, err
		}
		reps[i] = r
		r.a = nil
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
	}
	tr := reps[1]
	var untracedReps, tracedReps []*replayer
	for i, traced := range replayOrder {
		if traced {
			tracedReps = append(tracedReps, reps[i])
		} else {
			untracedReps = append(untracedReps, reps[i])
		}
	}
	meanTotal := func(rs []*replayer, i int) time.Duration {
		var t time.Duration
		for _, r := range rs {
			t += r.totals[i]
		}
		return t / time.Duration(len(rs))
	}

	vals := map[string][]float64{}
	perOp := make([]map[string]float64, len(ops))
	for i := range perOp {
		perOp[i] = map[string]float64{}
	}
	self := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i, s := range tr.spans {
		perOp[s.Op][s.Name] += float64(self[i])
	}
	for i := range ops {
		for _, sm := range spanMetrics {
			if v, ok := perOp[i][sm.span]; ok {
				vals[sm.metric] = append(vals[sm.metric], v/sm.scale)
			}
		}
		for name, v := range tr.counts[i] {
			vals[name] = append(vals[name], v)
		}
	}
	m := map[string]metric{}
	for _, sm := range spanMetrics {
		unit := "ms"
		if sm.scale == 1e3 {
			unit = "us"
		}
		m[sm.metric] = metric{median(vals[sm.metric]), unit}
	}
	for _, cm := range countMetrics {
		m[cm.name] = metric{median(vals[cm.name]), cm.unit}
	}
	gc := 0.0
	for _, v := range vals["go.gc_cycles"] {
		gc += v
	}
	m["go.gc_cycles_per_op"] = metric{gc / float64(len(ops)), "count"}
	fsyncs := b.fsyncDone + b.fsyncMax.Load() - b.fsyncBase.Load()
	m["store.fsyncs_per_write"] = metric{float64(fsyncs) / float64(b.writes), "count"}

	// The three totals of every operation kind.
	var sum [3]time.Duration
	byKind := map[string][3][]float64{}
	for i, o := range ops {
		t := [3]time.Duration{o.http, meanTotal(untracedReps, i), meanTotal(tracedReps, i)}
		k := byKind[opNames[o.kind]]
		for j := range t {
			sum[j] += t[j]
			k[j] = append(k[j], ms(t[j]))
		}
		byKind[opNames[o.kind]] = k
	}
	fmt.Fprintf(b.cfg.out, "totals %-10s %6s %12s %12s %12s\n", "op", "n", "http_ms", "replay_ms", "traced_ms")
	for _, name := range opNames {
		if k, ok := byKind[name]; ok {
			fmt.Fprintf(b.cfg.out, "totals %-10s %6d %12.3f %12.3f %12.3f\n", name, len(k[0]), median(k[0]), median(k[1]), median(k[2]))
		}
	}
	m["total.http_s"] = metric{sum[0].Seconds(), "s"}
	m["total.replay_s"] = metric{sum[1].Seconds(), "s"}
	m["total.traced_s"] = metric{sum[2].Seconds(), "s"}
	pct := func(d time.Duration) float64 { return 100 * d.Seconds() / sum[1].Seconds() }
	overhead := pct(sum[2] - sum[1])
	m["trace.overhead_pct"] = metric{overhead, "%"}
	// The range pairs every traced replay with every untraced one; the
	// noise is the larger difference within the untraced or the traced
	// pair. An overhead within the noise is not a measured cost.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range tracedReps {
		for _, u := range untracedReps {
			d := pct(sumOf(t.totals) - sumOf(u.totals))
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
	}
	noise := math.Max(
		math.Abs(pct(sumOf(untracedReps[0].totals)-sumOf(untracedReps[1].totals))),
		math.Abs(pct(sumOf(tracedReps[0].totals)-sumOf(tracedReps[1].totals))))
	verdict := "a measured cost"
	if math.Abs(overhead) <= noise {
		verdict = "below the replay-to-replay noise"
	}
	fmt.Fprintf(b.cfg.out, "over %d ops: serving cost %.3fs (http - replay); tracing overhead %+.2f%% (pairs %+.2f%% to %+.2f%%, noise %.2f%%): %s\n",
		len(ops), (sum[0] - sum[1]).Seconds(), overhead, lo, hi, noise, verdict)

	path, err := writeSpans(b.cfg.work, b.cfg.workload, b.cfg.seed, ops, tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.cfg.out, "spans %d written to %s\n", len(tr.spans), path)
	printMetrics(b.cfg.out, m, nil)
	return m, nil
}

func sumOf(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// writeSpans writes the traced replay's spans as JSON lines, one per
// span, after a header line per operation.
func writeSpans(work, workload string, seed int64, ops []op, spans []span) (string, error) {
	path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, o := range ops {
		_ = enc.Encode(map[string]interface{}{"op": i, "kind": opNames[o.kind], "http_ns": o.http.Nanoseconds()})
	}
	for _, s := range spans {
		_ = enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
