package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpusgen"
	"repro/internal/difftest"
	"repro/internal/rules"
	"repro/internal/service"
	"repro/internal/store"
)

// corpusName is the corpus every request targets.
const corpusName = "bench"

// maxBody is the server's request size limit.
const maxBody = 64 << 20

// bench is the state of one run: the server under test, the client, the
// generator holding the ground truth, and the samples gathered so far.
type bench struct {
	cfg     config
	dir     string // run directory
	dataDir string // the server's data directory
	chk     checker

	srv *server
	cl  *client

	gen  *corpusgen.Generator
	man  *corpusgen.Manifest // expected findings of the current corpus
	body []byte              // the encoded POST /assess request

	// refs holds the last fully verified /findings and /report bodies
	// (gzip bytes): a later read whose bytes equal a verified body is
	// correct without decoding it again, and any other body is decoded
	// and checked against the manifest.
	refMu     sync.Mutex
	refFind   []byte
	refReport []byte

	sampMu  sync.Mutex
	samples map[string][]float64
	stamps  map[string][]time.Time // when each sample was taken

	attempted, failed atomic.Int64
	// fsyncBase and fsyncMax bracket the journal fsyncs of the timed
	// writes: the cumulative count each /delta response carries.
	fsyncBase, fsyncMax atomic.Int64

	// fsyncDone holds the fsyncs of earlier server lifetimes (each
	// restart starts the count again).
	fsyncDone int64

	files       int // files the corpus holds now
	setupTimes  []float64
	setupAssess []float64   // the set-ups' uploads, each after a forced GC
	setupAt     []time.Time // when each set-up ended
	warming     bool        // set-up in progress: operations are not sampled
	snapBytes   int64       // size of the final snapshot
	heapLive    float64
	writeSpan   time.Duration // wall time of the phases that wrote
	writes      int64         // acknowledged writes within writeSpan

	// cals holds the calibrations (see reference.go); lastCal is when
	// the last one ended.
	calMu   sync.Mutex
	cals    []calibration
	lastCal time.Time

	log *opLog // non-nil on traced runs: the operations to replay
}

func newBench(cfg config, dir string) *bench {
	return &bench{
		cfg:     cfg,
		dir:     dir,
		dataDir: filepath.Join(dir, "data"),
		samples: make(map[string][]float64),
		stamps:  make(map[string][]time.Time),
		cl:      newClient(),
	}
}

// sample records one timed observation of an end-to-end metric; set-up
// and warm-up operations record none.
func (b *bench) sample(name string, v float64) {
	if b.warming {
		return
	}
	b.sampMu.Lock()
	b.samples[name] = append(b.samples[name], v)
	b.stamps[name] = append(b.stamps[name], time.Now())
	b.sampMu.Unlock()
}

// ---------------------------------------------------------------------------
// Correctness

// checker collects output-check failures; any failure makes the run's
// result incorrect.
type checker struct {
	mu sync.Mutex
	n  int
}

// failf records a failed check; the first few are printed.
func (c *checker) failf(format string, args ...interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n <= 8 {
		fmt.Fprintf(os.Stderr, "adbench: check failed: "+format+"\n", args...)
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

// checkRows compares /findings rows with the manifest as a multiset of
// (rule, file, line).
func checkRows(rows []service.FindingRow, man *corpusgen.Manifest) error {
	fs := make([]rules.Finding, len(rows))
	for i, r := range rows {
		fs[i] = rules.Finding{RuleID: r.Rule, File: r.File, Line: r.Line, Msg: r.Msg}
	}
	return difftest.CheckOracle(fs, man)
}

// verifyFindings decodes a gzip /findings body and checks it against a
// manifest.
func (b *bench) verifyFindings(gz []byte, man *corpusgen.Manifest) error {
	var resp service.FindingsResponse
	if err := decodeGzip(gz, &resp); err != nil {
		return err
	}
	if b.cfg.dropRow && len(resp.Findings) > 0 {
		resp.Findings = resp.Findings[:len(resp.Findings)-1]
	}
	if resp.Count != len(resp.Findings) {
		return fmt.Errorf("/findings count %d but %d rows", resp.Count, len(resp.Findings))
	}
	return checkRows(resp.Findings, man)
}

// reportObservations is the number of numbered observations the paper
// makes, all of which the report lists.
const reportObservations = 14

// verifyReport decodes a gzip /report body and checks its summary
// against the manifest and the corpus size.
func verifyReport(gz []byte, man *corpusgen.Manifest, files int) error {
	var resp service.ReportResponse
	if err := decodeGzip(gz, &resp); err != nil {
		return err
	}
	return checkSummary(resp.Summary, man, files, len(resp.Observations))
}

func checkSummary(s service.Summary, man *corpusgen.Manifest, files, observations int) error {
	if s.Findings != man.Total() {
		return fmt.Errorf("summary lists %d findings, manifest %d", s.Findings, man.Total())
	}
	if s.Files != files {
		return fmt.Errorf("summary lists %d files, corpus has %d", s.Files, files)
	}
	if observations != reportObservations {
		return fmt.Errorf("report lists %d observations, want %d", observations, reportObservations)
	}
	return nil
}

// checkRead verifies a /findings or /report body read at a state whose
// expected findings are b.man: equal to the verified reference, or
// decoded and checked (and then adopted as the reference).
func (b *bench) checkRead(path string, gz []byte) {
	b.refMu.Lock()
	defer b.refMu.Unlock()
	ref := &b.refFind
	if path == "/report" {
		ref = &b.refReport
	}
	if bytes.Equal(gz, *ref) {
		return
	}
	var err error
	if path == "/report" {
		err = verifyReport(gz, b.man, b.files)
	} else {
		err = b.verifyFindings(gz, b.man)
	}
	if err != nil {
		b.chk.failf("%s: %v", path, err)
		return
	}
	*ref = gz
}

// resetRefs forgets the verified bodies after a change of findings.
func (b *bench) resetRefs() {
	b.refMu.Lock()
	b.refFind, b.refReport = nil, nil
	b.refMu.Unlock()
}

// expectedManifest clones the generator's manifest, applying the test
// tamper hook.
func (b *bench) expectedManifest() *corpusgen.Manifest {
	m := b.gen.Manifest()
	if b.cfg.tamper != nil {
		b.cfg.tamper(m)
	}
	return m
}

// ---------------------------------------------------------------------------
// Server under test

// server is an in-process adserve over a persistent data directory.
type server struct {
	svc  *service.Server
	http *http.Server
	base string
	done chan error
}

// startServer opens the data directory (restoring every stored corpus)
// and serves on a fresh loopback listener.
func startServer(dataDir string) (*server, []service.RestoredCorpus, error) {
	d, err := store.Open(dataDir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	svc, restored, err := service.NewWithStore(d)
	if err != nil {
		return nil, nil, err
	}
	// The 10k-file upload is about 22 MB, above the 16 MiB default; the
	// limit is raised as `adserve -max-body` would.
	svc.MaxBody = maxBody
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, restored, nil
}

// close drains the listener, then closes the service cleanly: every
// corpus is compacted and marked clean, as on SIGTERM.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// shutdown closes the server if one is running (error paths).
func (b *bench) shutdown() {
	if b.srv != nil {
		_ = b.srv.close()
		b.srv = nil
	}
	b.cl.tr.CloseIdleConnections()
}

// ---------------------------------------------------------------------------
// Client

// client issues the load over at most nproc connections. Compression is
// never negotiated implicitly: reads ask for gzip explicitly and the
// body is timed as it arrives on the wire.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	n := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

// do sends one request and reads the whole response body; a status
// other than 200 is an error. The duration runs from sending the request
// to the last byte of the response.
func (b *bench) do(method, path string, body []byte, gz bool) ([]byte, time.Duration, error) {
	b.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.srv.base+path, rd)
	if err != nil {
		b.failed.Add(1)
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	t0 := time.Now()
	resp, err := b.cl.hc.Do(req)
	if err != nil {
		b.failed.Add(1)
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	if err == nil && gz && resp.Header.Get("Content-Encoding") != "gzip" {
		err = fmt.Errorf("%s %s: response not gzip-encoded", method, path)
	}
	if err != nil {
		b.failed.Add(1)
		return nil, d, err
	}
	return out, d, nil
}

func decodeGzip(gz []byte, v interface{}) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	defer zr.Close()
	return json.NewDecoder(zr).Decode(v)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ---------------------------------------------------------------------------
// Operations. Each one is one request (a restart is a close, a reopen
// and the first /report), records its timing under its metric when
// timed, checks its output and, on traced runs, logs itself for the
// in-process replay.

// assess replaces the corpus with b.body.
func (b *bench) assess() (time.Duration, error) {
	raw, d, err := b.do(http.MethodPost, "/assess", b.body, false)
	b.logOp(op{kind: opAssess, body: b.body, total: b.man.Total(), files: b.files}, d)
	if err != nil {
		return d, err
	}
	var resp service.AssessResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return d, err
	}
	if err := checkSummary(resp.Summary, b.man, b.files, reportObservations); err != nil {
		b.chk.failf("/assess: %v", err)
	}
	b.resetRefs()
	return d, nil
}

// fetch issues one gzip GET of /findings or /report and records it
// under metric (when non-empty), leaving the check to the caller.
func (b *bench) fetch(path, metric string) ([]byte, error) {
	gz, d, err := b.do(http.MethodGet, path+"?corpus="+corpusName, nil, true)
	kind := opFindings
	if path == "/report" {
		kind = opReport
	}
	b.logOp(op{kind: kind}, d)
	if err != nil {
		return nil, err
	}
	if metric != "" {
		b.sample(metric, ms(d))
	}
	return gz, nil
}

// read is fetch plus the check of the body.
func (b *bench) read(path, metric string) ([]byte, error) {
	gz, err := b.fetch(path, metric)
	if err == nil {
		b.checkRead(path, gz)
	}
	return gz, err
}

// snapshot forces a compaction.
func (b *bench) snapshot() error {
	raw, d, err := b.do(http.MethodPost, "/snapshot", []byte(`{"corpus":"`+corpusName+`"}`), false)
	b.logOp(op{kind: opSnapshot}, d)
	if err != nil {
		return err
	}
	var resp service.SnapshotResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if resp.Files != b.files {
		b.chk.failf("/snapshot wrote %d files, corpus has %d", resp.Files, b.files)
	}
	b.sample("compact_ms", ms(d))
	return nil
}

// delta sends one /delta, records write_p50_ms and checks the summary
// against want (the manifest after the delta). wantChecked > 0 also
// pins how many files the rule engine re-checked.
func (b *bench) delta(req *service.DeltaRequest, want *corpusgen.Manifest, files, wantChecked int) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	raw, d, err := b.do(http.MethodPost, "/delta", body, false)
	b.logOp(op{kind: opDelta, body: body, total: want.Total(), files: files, checked: wantChecked}, d)
	if err != nil {
		return err
	}
	var resp service.DeltaResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	b.sample("write_p50_ms", ms(d))
	if err := checkSummary(resp.Summary, want, files, reportObservations); err != nil {
		b.chk.failf("/delta: %v", err)
	}
	if wantChecked > 0 && resp.Delta.RuleFilesChecked != wantChecked {
		b.chk.failf("/delta re-checked %d files, want %d", resp.Delta.RuleFilesChecked, wantChecked)
	}
	switch {
	case resp.Journal == nil:
		b.chk.failf("/delta: no journal stats on a persistent server")
	case resp.Journal.Compacted:
		// Compaction is forced at fixed write counts; an automatic one
		// inside the timed phase would land in one write's latency.
		return errors.New("automatic compaction fired inside a run; force snapshots more often")
	default:
		for {
			cur := b.fsyncMax.Load()
			if resp.Journal.Fsyncs <= cur || b.fsyncMax.CompareAndSwap(cur, resp.Journal.Fsyncs) {
				break
			}
		}
	}
	return nil
}

// restart closes the server cleanly, forces a GC, opens dataDir
// (the data directory, or a crash copy of it) and answers the first
// /report, recording restart_ms. The restored corpus must have replayed
// wantReplayed journal records.
func (b *bench) restart(dataDir string, wantReplayed int) error {
	t0 := time.Now()
	if err := b.srv.close(); err != nil {
		return err
	}
	b.srv = nil
	b.cl.tr.CloseIdleConnections()
	b.fsyncDone += b.fsyncMax.Load() - b.fsyncBase.Load()
	b.fsyncBase.Store(0)
	b.fsyncMax.Store(0)
	runtime.GC()
	t1 := time.Now()
	srv, restored, err := startServer(dataDir)
	if err != nil {
		return err
	}
	b.srv = srv
	gz, _, err := b.do(http.MethodGet, "/report?corpus="+corpusName, nil, true)
	b.sample("restart_ms", ms(time.Since(t1)))
	o := op{kind: opRestart, total: b.man.Total(), files: b.files, replayed: wantReplayed}
	if dataDir != b.dataDir {
		o.copy = filepath.Base(dataDir)
	}
	b.logOp(o, time.Since(t0))
	if err != nil {
		return err
	}
	if len(restored) != 1 || restored[0].Name != corpusName || restored[0].Replayed != wantReplayed {
		b.chk.failf("restart restored %+v, want corpus %q with %d replayed records", restored, corpusName, wantReplayed)
	}
	b.checkRead("/report", gz)
	return nil
}

// recordHeap forces a GC and records the live heap, with the corpus
// loaded. The second GC empties the sync.Pool victim caches, which
// survive the first.
func (b *bench) recordHeap() {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.heapLive = float64(m.HeapAlloc) / 1e6
}

// ---------------------------------------------------------------------------
// Set-up

// setup makes the corpus and its ground truth, encodes the upload,
// starts the server on first use, loads the corpus and reads both
// projections once. Timed as a whole into setupTimes; the upload alone
// also into setupAssess.
func (b *bench) setup(warm func() error) error {
	b.warming = true
	defer func() { b.warming = false }()
	t0 := time.Now()
	b.gen = corpusgen.New(b.cfg.params, b.cfg.seed)
	b.man, b.files = b.expectedManifest(), b.gen.Len()
	files := make(map[string]string, b.gen.Len())
	for _, p := range b.gen.Paths() {
		files[p] = b.gen.Source(p)
	}
	body, err := json.Marshal(service.AssessRequest{Corpus: corpusName, Files: files})
	if err != nil {
		return err
	}
	b.body = body
	if b.srv == nil {
		if b.srv, _, err = startServer(b.dataDir); err != nil {
			return err
		}
	}
	runtime.GC()
	d, err := b.assess()
	if err != nil {
		return err
	}
	b.setupAssess = append(b.setupAssess, d.Seconds())
	for _, path := range []string{"/findings", "/report"} {
		if _, err := b.read(path, ""); err != nil {
			return err
		}
	}
	if warm != nil {
		if err := warm(); err != nil {
			return err
		}
	}
	b.setupTimes = append(b.setupTimes, time.Since(t0).Seconds())
	b.setupAt = append(b.setupAt, time.Now())
	return b.calibrate()
}

// ---------------------------------------------------------------------------
// Body edits

// fillerHead is the fixed opening of every corpusgen filler function up
// to the digit of its first condition, `if (mode > N) {`. Rotating that
// digit changes a function body without changing any name, any line
// count, any complexity or any finding.
const fillerHead = "float seed) {\n  float acc = seed + (0.5f * scale);\n  float limit = scale * 4.0f;\n  int idx = 0;\n  if (mode > "

// rotateDigit rotates the condition digit of the k-th filler function
// (k modulo the number of fillers) and reports false when src has none.
func rotateDigit(src string, k int) (string, bool) {
	n := strings.Count(src, fillerHead)
	if n == 0 {
		return src, false
	}
	k %= n
	at := 0
	for i := 0; ; i++ {
		at += strings.Index(src[at:], fillerHead) + len(fillerHead)
		if i == k {
			break
		}
	}
	d := src[at]
	if d < '0' || d > '9' || src[at+1] != ')' {
		return src, false
	}
	return src[:at] + string('0'+(d-'0'+1)%10) + src[at+1:], true
}

// editor issues body edits over a fixed set of files, cycling through
// them in a seeded order, and remembers the last acknowledged source of
// every file it edited.
type editor struct {
	files []string
	base  func(string) string
	acked map[string]string
	next  int
	k     int
}

func newEditor(files []string, base func(string) string, seed int64) *editor {
	fs := append([]string(nil), files...)
	sort.Strings(fs)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return &editor{files: fs, base: base, acked: make(map[string]string), k: r.Intn(3)}
}

// edit returns the next body edit as a one-file delta request.
func (e *editor) edit() (path, src string) {
	path = e.files[e.next%len(e.files)]
	cur, ok := e.acked[path]
	if !ok {
		cur = e.base(path)
	}
	e.k++
	src, _ = rotateDigit(cur, e.k+e.next/len(e.files))
	e.next++
	return path, src
}

// ccFiles lists the corpus's C++ files, grouped by module index (the
// order modules appear in the generator's paths).
func ccFiles(gen *corpusgen.Generator) [][]string {
	var mods [][]string
	idx := map[string]int{}
	for _, p := range gen.Paths() {
		m, _, _ := strings.Cut(p, "/")
		i, ok := idx[m]
		if !ok {
			i = len(mods)
			idx[m] = i
			mods = append(mods, nil)
		}
		if strings.HasSuffix(p, ".cc") {
			mods[i] = append(mods[i], p)
		}
	}
	return mods
}
