package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/difftest"
	"repro/internal/service"
	"repro/internal/store"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"cold":  (*bench).runCold,
	"edit":  (*bench).runEdit,
	"churn": (*bench).runChurn,
}

// Sizes of the workloads' rounds.
const (
	coldFindReads   = 8   // timed cache-hit /findings reads per cold sample
	coldReportReads = 24  // timed cache-hit /report reads per cold sample
	coldRestarts    = 3   // restarts per cold sample
	coldBursts      = 4   // write bursts after the cold restarts, each ended by a compaction
	coldWrites      = 4   // body edits per cold write burst
	editClients     = 2   // closed-loop writers in edit
	editWarmWrites  = 8   // untimed warm-up writes per edit client
	editFindEvery   = 4   // an edit client reads /findings after every 4th write
	editCompact     = 32  // edit forces a compaction every 32 acknowledged writes
	editHeapAt      = 256 // edit takes the live heap at its 256th acknowledged write
	editRestarts    = 14  // restarts after the edit timed phase
	churnBatch      = 8   // corpusgen mutations per churn /delta
	churnCompact    = 2   // churn forces a compaction every 2 writes
	churnRestarts   = 5   // crash copies churn restarts from
	churnHeapAt     = 16  // churn takes the live heap at its 16th write
)

func (b *bench) runWorkload() error {
	if err := workloads[b.cfg.workload](b); err != nil {
		return err
	}
	if err := b.calibrate(); err != nil {
		return err
	}
	if b.srv != nil {
		if err := b.srv.close(); err != nil {
			return err
		}
		b.srv = nil
	}
	b.cl.tr.CloseIdleConnections()
	fi, err := os.Stat(filepath.Join(b.dataDir, corpusName, "snapshot"))
	if err != nil {
		return err
	}
	b.snapBytes = fi.Size()
	return nil
}

// runCold: one client. Each sample replaces the corpus with a full
// upload, reads both projections at the settled generation, restarts the
// server from its data directory, then sends a few body edits to the
// restored corpus and forces a compaction.
func (b *bench) runCold() error {
	for i := 0; i < b.cfg.setups; i++ {
		if err := b.setup(nil); err != nil {
			return err
		}
	}
	mods := ccFiles(b.gen)
	deadline := time.Now().Add(b.cfg.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if err := b.calibrate(); err != nil {
			return err
		}
		runtime.GC()
		d, err := b.assess()
		if err != nil {
			return err
		}
		b.sample("assess_s", d.Seconds())
		// The first read of each projection renders it; the timed reads
		// after it are served from the projection cache.
		for _, path := range []string{"/findings", "/report"} {
			if _, err := b.read(path, ""); err != nil {
				return err
			}
		}
		// The reads are short; a forced GC keeps the upload's garbage
		// from being collected under them.
		runtime.GC()
		var before []byte
		for i := 0; i < coldFindReads; i++ {
			if before, err = b.read("/findings", "findings_p50_ms"); err != nil {
				return err
			}
		}
		for i := 0; i < coldReportReads; i++ {
			if _, err := b.read("/report", "report_p50_ms"); err != nil {
				return err
			}
		}
		for i := 0; i < coldRestarts; i++ {
			if err := b.restart(b.dataDir, 0); err != nil {
				return err
			}
			after, err := b.read("/findings", "")
			if err != nil {
				return err
			}
			if !bytes.Equal(before, after) {
				b.chk.failf("/findings bytes differ across a restart")
			}
		}
		// One file of every module, so that each of the 16 writes is the
		// first write to its module since the restore (coldBursts ×
		// coldWrites is at most the number of modules).
		r := rand.New(rand.NewSource(b.cfg.seed + int64(n)))
		files := make([]string, len(mods))
		for i, fs := range mods {
			files[i] = fs[r.Intn(len(fs))]
		}
		ed := newEditor(files, b.gen.Source, b.cfg.seed+int64(n))
		for i := 0; i < coldBursts; i++ {
			runtime.GC()
			t0 := time.Now()
			for w := 0; w < coldWrites; w++ {
				if err := b.edit(ed); err != nil {
					return err
				}
			}
			b.writeSpan += time.Since(t0)
			b.writes += coldWrites
			runtime.GC()
			if err := b.snapshot(); err != nil {
				return err
			}
		}
	}
	b.recordHeap()
	return nil
}

// runEdit: two closed-loop clients, each owning half the modules, send
// one-file body edits; every write is followed by a /report read and
// every fourth by a /findings read. A compaction is forced every
// editCompact writes, and the live heap is taken at the editHeapAt-th.
// After the timed phase a read-only recovery of the data directory must
// hold the last acknowledged source of every edited file, and the
// server restarts editRestarts times.
func (b *bench) runEdit() error {
	var eds []*editor
	warm := func() error {
		eds = b.editors()
		for i := 0; i < editWarmWrites; i++ {
			for _, ed := range eds {
				if err := b.edit(ed); err != nil {
					return err
				}
				if _, err := b.read("/report", ""); err != nil {
					return err
				}
			}
		}
		return b.snapshot()
	}
	for i := 0; i < b.cfg.setups; i++ {
		if err := b.setup(warm); err != nil {
			return err
		}
	}
	b.fsyncBase.Store(b.fsyncMax.Load())
	var acked atomic.Int64
	var gate sync.RWMutex
	var paused atomic.Int64 // ns the clients stood still for the heap and calibrations
	errs := make([]error, len(eds))
	start := time.Now()
	deadline := start.Add(b.cfg.seconds)
	var wg sync.WaitGroup
	for c, ed := range eds {
		wg.Add(1)
		go func(c int, ed *editor) {
			defer wg.Done()
			errs[c] = b.editLoop(ed, deadline, &acked, &gate, &paused)
		}(c, ed)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	b.writeSpan = time.Since(start) - time.Duration(paused.Load())
	b.writes = acked.Load()
	if err := b.checkRecovery(eds); err != nil {
		return err
	}
	// The restarts come in a row after the timed phase; a calibration
	// right before them times the host they run on.
	if err := b.calibrate(); err != nil {
		return err
	}
	for i := 0; i < editRestarts; i++ {
		if err := b.restart(b.dataDir, 0); err != nil {
			return err
		}
	}
	return nil
}

// editors splits the corpus's modules between the edit clients, each
// editing every C++ file of its modules in its own seeded order.
func (b *bench) editors() []*editor {
	mods := ccFiles(b.gen)
	eds := make([]*editor, editClients)
	for c := range eds {
		var files []string
		for i, fs := range mods {
			if i*editClients/len(mods) == c {
				files = append(files, fs...)
			}
		}
		eds[c] = newEditor(files, b.gen.Source, b.cfg.seed*31+int64(c))
	}
	return eds
}

// edit sends the editor's next body edit; it must re-check exactly one
// file and leave the findings unchanged.
func (b *bench) edit(ed *editor) error {
	path, src := ed.edit()
	req := service.DeltaRequest{Corpus: corpusName, Changed: map[string]string{path: src}}
	if err := b.delta(&req, b.man, b.files, 1); err != nil {
		return err
	}
	ed.acked[path] = src
	return nil
}

// editLoop is one edit client. Each round runs under gate's read lock.
// The client whose write is the editHeapAt-th takes the write lock, so
// that the heap is taken with no request in flight, and so does a client
// that finds a calibration due, so that the reference runs alone; both
// add their pause to paused.
func (b *bench) editLoop(ed *editor, deadline time.Time, acked *atomic.Int64, gate *sync.RWMutex, paused *atomic.Int64) error {
	round := func(n int) (int64, error) {
		gate.RLock()
		defer gate.RUnlock()
		if err := b.edit(ed); err != nil {
			return 0, err
		}
		total := acked.Add(1)
		if _, err := b.read("/report", "report_p50_ms"); err != nil {
			return 0, err
		}
		if n%editFindEvery == 0 {
			if _, err := b.read("/findings", "findings_p50_ms"); err != nil {
				return 0, err
			}
		}
		if total%editCompact == 0 {
			// As before every timed compaction: the garbage of the
			// writes so far is collected before it, not during it.
			runtime.GC()
			if err := b.snapshot(); err != nil {
				return 0, err
			}
		}
		return total, nil
	}
	// The phase lasts at least until the heap is taken.
	for n := 1; time.Now().Before(deadline) || acked.Load() < editHeapAt; n++ {
		total, err := round(n)
		if err != nil {
			return err
		}
		if total == editHeapAt {
			t0 := time.Now()
			gate.Lock()
			// Both projections cached at the current generation, whichever
			// client wrote last, so that the heap holds the same state on
			// every run.
			for _, path := range []string{"/findings", "/report"} {
				if _, err := b.read(path, ""); err != nil {
					gate.Unlock()
					return err
				}
			}
			b.recordHeap()
			gate.Unlock()
			paused.Add(int64(time.Since(t0)))
		}
		if b.calibrationDue() {
			gate.Lock()
			t0 := time.Now()
			var err error
			if b.calibrationDue() {
				err = b.calibrate()
			}
			gate.Unlock()
			paused.Add(int64(time.Since(t0)))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRecovery recovers the data directory read-only, beside the live
// server, and checks it against what the clients were told.
func (b *bench) checkRecovery(eds []*editor) error {
	d, err := store.Open(b.dataDir, store.Options{})
	if err != nil {
		return err
	}
	cs, err := d.Corpus(corpusName)
	if err != nil {
		return err
	}
	a, _, err := cs.RecoverReadOnly(core.DefaultConfig())
	if err != nil {
		return fmt.Errorf("read-only recovery: %w", err)
	}
	edited := 0
	for _, ed := range eds {
		for p, src := range ed.acked {
			edited++
			if f := a.FileSet().Lookup(p); f == nil || f.Src != src {
				b.chk.failf("recovered %s does not hold its last acknowledged source", p)
			}
		}
	}
	if edited == 0 {
		b.chk.failf("edit acknowledged no writes")
	}
	if err := difftest.CheckOracle(a.Findings(), b.man); err != nil {
		b.chk.failf("recovered findings: %v", err)
	}
	return nil
}

// crashCopy is a copy of the data directory taken just before a forced
// compaction, with the ground truth at that point.
type crashCopy struct {
	dir   string
	man   *corpusgen.Manifest
	files int
}

// pendingRead is a /findings body checked after the timed phase.
type pendingRead struct {
	gz  []byte
	man *corpusgen.Manifest
}

// runChurn: one client sends batches of churnBatch corpusgen mutations
// (adds, regenerations, removals) as one multi-file /delta, reads both
// projections after each, and forces a compaction every churnCompact
// writes — copying the data directory just before, so that restarts
// replay a journal — and takes the live heap at the churnHeapAt-th. After
// the timed phase the server restarts from the last churnRestarts
// copies, each of which must reproduce the manifest as it stood at the
// copy.
func (b *bench) runChurn() error {
	warm := func() error {
		if err := b.churnWrite(); err != nil {
			return err
		}
		return b.snapshot()
	}
	for i := 0; i < b.cfg.setups; i++ {
		if err := b.setup(warm); err != nil {
			return err
		}
	}
	var crashes []crashCopy
	var pending []pendingRead
	checkPending := func() {
		for _, p := range pending {
			if err := b.verifyFindings(p.gz, p.man); err != nil {
				b.chk.failf("/findings before a compaction: %v", err)
			}
		}
		pending = nil
	}
	var paused time.Duration // the heap pause and the calibrations
	b.fsyncBase.Store(b.fsyncMax.Load())
	start := time.Now()
	deadline := start.Add(b.cfg.seconds)
	// The phase lasts at least until the heap is taken.
	for n := 1; n <= churnHeapAt || time.Now().Before(deadline); n++ {
		if err := b.churnWrite(); err != nil {
			return err
		}
		// /report is checked at once. The /findings body read just before
		// each compaction is decoded and checked after the timed phase, so
		// that decoding does not slow the loop; the total of the others is
		// checked through the /delta and /report summaries.
		if _, err := b.read("/report", "report_p50_ms"); err != nil {
			return err
		}
		gz, err := b.fetch("/findings", "findings_p50_ms")
		if err != nil {
			return err
		}
		b.writes++
		if n == churnHeapAt {
			// Left out of the timed phase: the bodies kept so far are
			// checked and dropped, so that the heap holds the server's
			// state and a fixed share of the benchmark's own.
			t0 := time.Now()
			checkPending()
			b.recordHeap()
			paused += time.Since(t0)
		}
		if b.calibrationDue() {
			t0 := time.Now()
			if err := b.calibrate(); err != nil {
				return err
			}
			paused += time.Since(t0)
		}
		if n%churnCompact != 0 {
			continue
		}
		pending = append(pending, pendingRead{gz, b.man})
		c, err := b.copyData(n)
		if err != nil {
			return err
		}
		crashes = append(crashes, c)
		if len(crashes) > churnRestarts {
			if err := os.RemoveAll(crashes[0].dir); err != nil {
				return err
			}
			crashes = crashes[1:]
		}
		// A churn write leaves tens of MB of garbage; a forced GC keeps
		// its collection out of the compaction's time and out of the
		// timed phase.
		t0 := time.Now()
		runtime.GC()
		paused += time.Since(t0)
		if err := b.snapshot(); err != nil {
			return err
		}
	}
	b.writeSpan = time.Since(start) - paused
	checkPending()
	if err := b.calibrate(); err != nil {
		return err
	}
	for _, c := range crashes {
		b.man, b.files = c.man, c.files
		b.resetRefs()
		if err := b.restart(c.dir, churnCompact); err != nil {
			return err
		}
		if _, err := b.read("/findings", ""); err != nil {
			return err
		}
	}
	return nil
}

// churnWrite applies at least churnBatch generator mutations and sends
// their net effect as one /delta: a file added and removed within the
// batch is left out, and a removal drops an earlier change of the path.
func (b *bench) churnWrite() error {
	req := service.DeltaRequest{Corpus: corpusName, Changed: map[string]string{}}
	added := map[string]bool{}
	for n := 0; n < churnBatch || len(req.Changed)+len(req.Removed) == 0; n++ {
		m := b.gen.Mutate()
		switch m.Kind {
		case corpusgen.MutAdd:
			added[m.Path] = true
			req.Changed[m.Path] = m.Src
		case corpusgen.MutEdit:
			req.Changed[m.Path] = m.Src
		case corpusgen.MutRemove:
			delete(req.Changed, m.Path)
			if !added[m.Path] {
				req.Removed = append(req.Removed, m.Path)
			}
		}
	}
	b.man, b.files = b.expectedManifest(), b.gen.Len()
	b.resetRefs()
	return b.delta(&req, b.man, b.files, 0)
}

// copyData copies the corpus's snapshot and journal into a fresh data
// directory, as a crash at this instant would leave them.
func (b *bench) copyData(i int) (crashCopy, error) {
	t0 := time.Now()
	dir := filepath.Join(b.dir, fmt.Sprintf("crash-%d", i))
	if err := copyFiles(filepath.Join(b.dataDir, corpusName), filepath.Join(dir, corpusName)); err != nil {
		return crashCopy{}, err
	}
	b.logOp(op{kind: opCopy, copy: filepath.Base(dir)}, time.Since(t0))
	return crashCopy{dir: dir, man: b.man, files: b.files}, nil
}

// endToEnd turns the samples into the end-to-end metrics and prints
// them with their sample counts and tails. Every time is scaled for the
// host's speed (see reference.go); the human-readable lines give the
// measured median beside it.
func (b *bench) endToEnd() map[string]metric {
	assess, assessAt := b.samples["assess_s"], b.stamps["assess_s"]
	if len(assess) == 0 {
		// edit and churn load the corpus only while setting up. The first
		// set-up's upload is left out when there are others: it runs in a
		// fresh process, whose heap the collector is still growing.
		assess, assessAt = b.setupAssess, b.setupAt
		if len(assess) > 1 {
			assess, assessAt = assess[1:], assessAt[1:]
		}
	}
	type timed struct {
		xs   []float64
		at   []time.Time
		unit string
	}
	times := map[string]timed{
		"setup_s":  {b.setupTimes, b.setupAt, "s"},
		"assess_s": {assess, assessAt, "s"},
	}
	for _, name := range []string{"restart_ms", "findings_p50_ms", "report_p50_ms", "write_p50_ms", "compact_ms"} {
		times[name] = timed{b.samples[name], b.stamps[name], "ms"}
	}
	f := b.hostFactor()
	wps := float64(b.writes) / b.writeSpan.Seconds()
	m := map[string]metric{
		"writes_per_s": {wps / f, "1/s"},
		"heap_live_mb": {b.heapLive, "MB"},
		"snapshot_mb":  {float64(b.snapBytes) / 1e6, "MB"},
	}
	notes := map[string]string{
		"writes_per_s": fmt.Sprintf("measured %.4f writes=%d over %.2fs", wps, b.writes, b.writeSpan.Seconds()),
	}
	for name, t := range times {
		m[name] = metric{b.scaledMedian(t.xs, t.at), t.unit}
		notes[name] = fmt.Sprintf("measured %.4f %s", median(t.xs), tail(t.xs))
	}
	b.calMu.Lock()
	var reps []float64
	for _, c := range b.cals {
		reps = append(reps, c.reps...)
	}
	b.calMu.Unlock()
	q1, q2, q3 := quartiles(reps)
	fmt.Fprintf(b.cfg.out, "reference median %.2f ms (q1 %.2f, q3 %.2f, n=%d repetitions in %d calibrations); run factor %.4f = %v / median\n",
		q2, q1, q3, len(reps), len(b.cals), f, refNominal)
	printMetrics(b.cfg.out, m, notes)
	return m
}

// tail describes a sample set: its count and, once at least ten samples
// lie beyond it, the p90 or p99.
func tail(xs []float64) string {
	s := fmt.Sprintf("n=%d", len(xs))
	switch {
	case len(xs) >= 1000:
		s += fmt.Sprintf(" p99=%.3f", percentile(xs, 99))
	case len(xs) >= 100:
		s += fmt.Sprintf(" p90=%.3f", percentile(xs, 90))
	}
	return s
}
