package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	messi "repro"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/series"
	"repro/internal/vector"
)

// The live-serve workload: messi-serve -live -shards 2 with an fsync-per-
// append WAL, booted from a snapshot plus a WAL tail, under a seeded mix
// of approximate 10-NN queries, exact 1-NN queries and 16-row appends.
const (
	liveBase      = 200_000 // series in the boot snapshot
	liveLen       = 256
	liveTail      = 1_024 // series journaled after the snapshot (< liveThreshold)
	liveBatch     = 16    // series per append
	livePool      = 512   // distinct queries
	liveBatches   = 4096  // distinct append batches, cycled
	liveOps       = 1 << 18
	liveThreshold = 2000
	liveClients   = 2
	liveK         = 10
)

// Op kinds of the live mix.
const (
	opApprox = iota // POST /v1/knn, approximate, k=10 (85%)
	opExact         // POST /v1/search, exact 1-NN (5%)
	opAppend        // POST /v1/series, 16 new series (10%)
)

var opName = [...]string{"approx", "exact", "append"}

type liveOp struct{ kind, arg int } // arg: query index or append batch index

type liveInputs struct {
	base    *series.Collection
	tail    [][]float32
	queries *series.Collection
	appends *series.Collection
	ops     []liveOp
}

func makeLiveInputs(seed int64) (liveInputs, error) {
	var in liveInputs
	parts, err := generateParts(dataset.SeismicLike, liveLen, corpusSeed(dataset.SeismicLike),
		liveBase, liveTail, liveBatches*liveBatch, queryCandidates)
	if err != nil {
		return in, err
	}
	in.base, in.appends = parts[0], parts[2]
	in.tail = rowsOf(parts[1])
	if in.queries, err = pick(parts[3], livePool, derive(seed, "queries")); err != nil {
		return in, err
	}
	rng := rand.New(rand.NewSource(derive(seed, "ops")))
	order := rng.Perm(liveBatches) // which arriving batches this seed appends, in order
	batches := 0
	for len(in.ops) < liveOps {
		switch x := rng.Float64(); {
		case x < 0.85:
			in.ops = append(in.ops, liveOp{opApprox, rng.Intn(livePool)})
		case x < 0.90:
			in.ops = append(in.ops, liveOp{opExact, rng.Intn(livePool)})
		default:
			in.ops = append(in.ops, liveOp{opAppend, order[batches%liveBatches]})
			batches++
		}
	}
	return in, nil
}

func (in liveInputs) opsHash() string {
	flat := make([]int, 0, 2*len(in.ops))
	for _, o := range in.ops {
		flat = append(flat, o.kind, o.arg)
	}
	return hashInts(flat)
}

func (in liveInputs) batch(b int) [][]float32 {
	rows := make([][]float32, liveBatch)
	for i := range rows {
		rows[i] = in.appends.At(b*liveBatch + i)
	}
	return rows
}

// prepareLive writes the boot state untimed: a 2-shard snapshot of the
// base series and a WAL holding the tail appended after it.
func prepareLive(dir string, in liveInputs) error {
	lix, err := messi.BuildLiveFlat(in.base.Data, liveLen, &messi.Options{Shards: 2},
		&messi.LiveOptions{WALDir: filepath.Join(dir, "wal"), WALSync: "always", RebuildThreshold: liveThreshold})
	if err != nil {
		return err
	}
	if err := lix.Save(filepath.Join(dir, "snap")); err != nil {
		lix.Close()
		return err
	}
	for i := 0; i < liveTail; i += liveBatch {
		if _, err := lix.AppendBatch(in.tail[i : i+liveBatch]); err != nil {
			lix.Close()
			return err
		}
	}
	return lix.Close()
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p) // p is under src
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// liveRec is one HTTP operation of the mix.
type liveRec struct {
	op         liveOp
	start, end time.Time
	status     int
	err        error
	res        wireResult
}

func runLive(r *runCtx) error {
	in, err := makeLiveInputs(r.seed)
	if err != nil {
		return err
	}
	r.logf("hash data %s", hashFloats(in.base.Data))
	r.logf("hash queries %s", hashFloats(in.queries.Data))
	r.logf("hash ops %s", in.opsHash())
	prep := filepath.Join(r.dir, "prep")
	if err := prepareLive(prep, in); err != nil {
		return fmt.Errorf("prepare boot state: %w", err)
	}

	// Every boot starts from a fresh copy: a boot may rewrite the snapshot.
	boot := func(i int) (*server, string, time.Duration, error) {
		dir := filepath.Join(r.dir, fmt.Sprintf("boot%d", i))
		if err := copyDir(prep, dir); err != nil {
			return nil, "", 0, err
		}
		srv, d, err := startServer(r.serve, filepath.Join(dir, "serve.log"),
			"-live", "-shards", "2", "-wal", filepath.Join(dir, "wal"), "-wal-sync", "always",
			"-rebuild-threshold", fmt.Sprint(liveThreshold), "-snapshot", filepath.Join(dir, "snap"))
		return srv, dir, d, err
	}
	setups := setupRuns
	if r.traced {
		setups = 1
	}
	var (
		srv    *server
		dir    string
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.stop()
			os.RemoveAll(dir)
		}
		var d time.Duration
		if srv, dir, d, err = boot(i); err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer srv.stop()

	// Request bodies of the query pool are encoded once, untimed.
	vecs := make([][]byte, livePool)
	for i := range vecs {
		vecs[i] = appendVec(nil, in.queries.At(i))
	}
	body := func(o liveOp, traced bool) (string, []byte) {
		var b []byte
		var path string
		switch o.kind {
		case opApprox:
			path = "/v1/knn"
			b = append(append([]byte(`{"query":`), vecs[o.arg]...), fmt.Sprintf(`,"k":%d,"mode":"approx"`, liveK)...)
		case opExact:
			path = "/v1/search"
			b = append([]byte(`{"query":`), vecs[o.arg]...)
		default:
			path = "/v1/series"
			b = []byte(`{"series":[`)
			for i, row := range in.batch(o.arg) {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendVec(b, row)
			}
			b = append(b, ']')
		}
		if traced && o.kind != opAppend {
			b = append(b, `,"trace":true`...)
		}
		return path, append(b, '}')
	}
	var next atomic.Int64
	do := func(traced bool) func(int) liveRec {
		return func(i int) liveRec {
			o := in.ops[i%len(in.ops)]
			path, b := body(o, traced)
			rec := liveRec{op: o, start: time.Now()}
			rec.status, b, rec.err = srv.post(path, b)
			if rec.err == nil && rec.status == http.StatusOK {
				rec.err = json.Unmarshal(b, &rec.res)
			}
			rec.end = time.Now()
			if traced {
				id := r.tr.id()
				if t := rec.res.Trace; t != nil {
					// The server's own Do time, placed at the middle of the
					// request: only its length matters for self time.
					el := time.Duration(t.ElapsedSeconds * 1e9)
					mid := rec.start.Add(rec.end.Sub(rec.start) / 2)
					r.tr.record(0, id, int64(i)+1, "api/LiveIndex.Do (server trace.elapsed)", mid.Add(-el/2), mid.Add(el/2))
				}
				r.tr.record(id, 0, int64(i)+1, "http/POST "+path, rec.start, rec.end)
			}
			return rec
		}
	}
	loop := func(seconds float64, traced bool) ([]liveRec, window) {
		warm := closedLoop(liveClients, time.Now().Add(warmUp), &next, do(traced))
		w := window{start: time.Now()}
		w.end = w.start.Add(time.Duration(seconds * float64(time.Second)))
		return append(warm, closedLoop(liveClients, w.end, &next, do(traced))...), w
	}

	var recs []liveRec
	if !r.traced {
		var w window
		recs, w = loop(float64(r.seconds), false)
		peak, err := srv.peakRSSMiB()
		if err != nil {
			return err
		}
		lat := map[int][]float64{}
		var all []float64
		for _, rec := range recs {
			if w.holds(rec.start, rec.end) {
				d := float64(rec.end.Sub(rec.start)) / 1e6
				lat[rec.op.kind] = append(lat[rec.op.kind], d)
				all = append(all, d)
			}
		}
		r.metric("setup_s", median(setupS), "s", fmt.Sprintf("median of %d boots, exec until /readyz is 200", setups))
		r.metric("qps", float64(len(all))/w.seconds(), "ops/s", fmt.Sprintf("%d ops in %.1f s, %d connections", len(all), w.seconds(), liveClients))
		r.latency("", all)
		r.latency("approx_", lat[opApprox])
		r.latency("exact_", lat[opExact])
		r.latency("append_", lat[opAppend])
		r.metric("mem_mb", peak, "MiB", "messi-serve VmHWM")
	} else {
		stats := sampleStats(srv)
		s0, err := srv.scrape()
		if err != nil {
			return err
		}
		plain, wPlain := loop(float64(r.seconds)/2, false)
		s1, err := srv.scrape()
		if err != nil {
			return err
		}
		traced, wTraced := loop(float64(r.seconds)/2, true)
		s2, err := srv.scrape()
		if err != nil {
			return err
		}
		deltas := stats()
		recs = append(plain, traced...)
		if err := r.liveLayerMetrics(plain, traced, wPlain, wTraced, s0, s1, s2, deltas, liveBase+liveTail); err != nil {
			return err
		}
	}
	srv.stop()

	refused, err := r.checkLive(recs, in, dir)
	if err != nil {
		return err
	}
	r.attempted = len(recs)
	r.errorRate(refused)
	if r.traced {
		p := probeIn{kind: dataset.SeismicLike, data: in.base, queries: rowsOf(in.queries), tail: in.tail,
			snapshot: filepath.Join(prep, "snap"), walDir: filepath.Join(prep, "wal"), server: true,
			request: func(q []float32) messi.SearchRequest {
				return messi.SearchRequest{Query: q, K: liveK, Mode: messi.ModeApprox}
			}}
		if p.sx, _, err = persist.ReadShardedDir(p.snapshot); err != nil {
			return err
		}
		if p.pub, err = messi.Load(p.snapshot); err != nil {
			return err
		}
		return r.probeLayers(p)
	}
	return nil
}

func rowsOf(c *series.Collection) [][]float32 {
	out := make([][]float32, c.Count())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// sampleStats polls GET /v1/stats every 200 ms until the returned stop
// function is called; stop returns the sampled delta sizes.
func sampleStats(srv *server) func() []float64 {
	var (
		mu      sync.Mutex
		samples []float64
		wg      sync.WaitGroup
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			if st, err := srv.stats(); err == nil {
				d, _ := st["delta_series"].(float64) // omitted when 0
				mu.Lock()
				samples = append(samples, d)
				mu.Unlock()
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return samples
	}
}

// liveLayerMetrics reports the layers read from messi-serve itself: the
// engine and live histograms and counters of /metrics, the HTTP route
// histograms against each response's trace.elapsed and the client's own
// latency, and the core counters of the traced responses.
func (r *runCtx) liveLayerMetrics(plain, traced []liveRec, wPlain, wTraced window, s0, s1, s2 prom, deltas []float64, collection int) error {
	var nPlain, nTraced int
	var t traceSummary
	var clientMs, elapsedMs []float64
	for _, rec := range plain {
		if wPlain.holds(rec.start, rec.end) {
			nPlain++
		}
	}
	for _, rec := range traced {
		if !wTraced.holds(rec.start, rec.end) {
			continue
		}
		nTraced++
		if tr := rec.res.Trace; tr != nil {
			phases := map[string]float64{}
			for _, p := range tr.Phases {
				phases[p.Name] = p.Seconds * 1000
			}
			c := tr.Counters
			t.add(phases, messi.QueryCounters{NodesVisited: c.NodesVisited, LowerBounds: c.LowerBounds,
				RealDistances: c.RealDistances, LeavesInserted: c.LeavesInserted, LeavesPruned: c.LeavesPruned, BSFUpdates: c.BSFUpdates})
			clientMs = append(clientMs, float64(rec.end.Sub(rec.start))/1e6)
			elapsedMs = append(elapsedMs, tr.ElapsedSeconds*1000)
		}
	}
	if nPlain == 0 || nTraced == 0 || t.n == 0 {
		return errors.New("live-serve traced run completed no traced queries")
	}
	r.metric("trace.overhead", (float64(nTraced)/wTraced.seconds())/(float64(nPlain)/wPlain.seconds()),
		"ratio", fmt.Sprintf("traced ÷ untraced qps (%d and %d ops)", nTraced, nPlain))
	r.reportCore(t, collection)
	if err := r.engineMetrics(s1, s2); err != nil {
		return err
	}
	var routeSum, routeN, querySum, queryN float64
	for _, path := range []string{"/v1/knn", "/v1/search", "/v1/series"} {
		label := fmt.Sprintf(`path=%q`, path)
		n := s2.sum("messi_http_request_seconds_count", label) - s1.sum("messi_http_request_seconds_count", label)
		s := s2.sum("messi_http_request_seconds_sum", label) - s1.sum("messi_http_request_seconds_sum", label)
		routeSum, routeN = routeSum+s, routeN+n
		if path != "/v1/series" {
			querySum, queryN = querySum+s, queryN+n
		}
		if n > 0 {
			r.logf("extra http.server_ms{%s} %s ms n=%.0f", path, fmtFloat(1000*s/n), n)
		}
	}
	serverQueryMs := 1000 * querySum / queryN
	r.metric("http.server_ms", 1000*routeSum/routeN, "ms", fmt.Sprintf("mean of %.0f, messi_http_request_seconds over the mix's routes", routeN))
	r.metric("http.handler_overhead_ms", serverQueryMs-mean(elapsedMs), "ms", "server time - trace.elapsed, query routes")
	r.metric("http.client_overhead_ms", mean(clientMs)-serverQueryMs, "ms", "client latency - server time, query routes")
	r.metric("live.delta_series", mean(deltas), "count", fmt.Sprintf("mean of %d /v1/stats samples", len(deltas)))
	r.metric("live.rebuilds", s2.sum("messi_live_rebuilds_total")-s0.sum("messi_live_rebuilds_total"), "count", "messi_live_rebuilds_total over the run")
	r.metric("live.rebuild_s", s2.sum("messi_live_rebuild_seconds_sum")-s0.sum("messi_live_rebuild_seconds_sum"), "s", "messi_live_rebuild_seconds sum over the run")
	return nil
}

// checkLive is the verification pass of live-serve, run after the
// server stopped. Exact answers must equal brute force over what the
// server could see, approximate answers must be real series at their
// stated distances (so each distance is at least the exact one), and
// every acked append must be readable, bit for bit, after a restart
// from the files the killed server left behind. It returns the number of
// refused requests.
func (r *runCtx) checkLive(recs []liveRec, in liveInputs, dir string) (int, error) {
	type ack struct {
		first      int
		batch      int
		sent, done time.Time
	}
	var acks []ack
	refused := 0
	for _, rec := range recs {
		switch {
		case rec.err != nil:
			r.failed++
		case rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable:
			refused++
		case rec.status != http.StatusOK:
			r.failed++
		case rec.op.kind == opAppend:
			if rec.res.Count != liveBatch {
				r.problem("append acked %d of %d series", rec.res.Count, liveBatch)
				continue
			}
			acks = append(acks, ack{rec.res.FirstPosition, rec.op.arg, rec.start, rec.end})
		}
	}
	// The full collection as of the end of the run, by position.
	total := liveBase + liveTail
	for _, a := range acks {
		total = max(total, a.first+liveBatch)
	}
	final := make([]float32, total*liveLen)
	copy(final, in.base.Data)
	for i, row := range in.tail {
		copy(final[(liveBase+i)*liveLen:], row)
	}
	known := make([]bool, total)
	for i := 0; i < liveBase+liveTail; i++ {
		known[i] = true
	}
	appendSent := make([]time.Time, total) // zero for boot-time series
	appendAcked := make([]time.Time, total)
	for _, a := range acks {
		for i, row := range in.batch(a.batch) {
			p := a.first + i
			if known[p] {
				r.problem("position %d acked twice", p)
			}
			known[p] = true
			copy(final[p*liveLen:], row)
			appendSent[p], appendAcked[p] = a.sent, a.done
		}
	}
	col, err := series.NewCollection(final, liveLen)
	if err != nil {
		return 0, err
	}
	// visible: a series the server may have searched for a request
	// answered at end (its append was sent before that).
	visible := func(p int, end time.Time) bool {
		return p >= 0 && p < total && known[p] && appendSent[p].Before(end)
	}
	checkMatch := func(rec liveRec, m wireMatch) bool {
		if !visible(m.Position, rec.end) {
			r.problem("%s query %d: position %d was not visible", opName[rec.op.kind], rec.op.arg, m.Position)
			return false
		}
		d := math.Sqrt(vector.SquaredEuclidean(col.At(m.Position), in.queries.At(rec.op.arg)))
		if !sameDist(d, m.Distance) {
			r.problem("%s query %d: position %d at distance %v, stated %v", opName[rec.op.kind], rec.op.arg, m.Position, d, m.Distance)
			return false
		}
		return true
	}

	var exact []liveRec
	short := 0 // approximate answers with fewer than liveK matches
	for _, rec := range recs {
		if rec.err != nil || rec.status != http.StatusOK || rec.op.kind == opAppend {
			continue
		}
		ms := rec.res.Matches
		if rec.op.kind == opApprox {
			// ModeApprox k-NN returns "up to K" matches: the query's own leaf
			// (per shard) plus the delta, which can hold fewer than K. A
			// short answer is counted and printed; it is not wrong.
			switch {
			case len(ms) == 0 || len(ms) > liveK:
				r.problem("approx query %d: %d matches, want 1 to %d", rec.op.arg, len(ms), liveK)
				continue
			case len(ms) < liveK:
				short++
			}
			seen := map[int]bool{}
			for i, m := range ms {
				if seen[m.Position] || (i > 0 && m.Distance < ms[i-1].Distance) {
					r.problem("approx query %d: match %d is duplicated or out of order", rec.op.arg, i)
					break
				}
				if !checkMatch(rec, m) {
					break
				}
				seen[m.Position] = true
			}
			continue
		}
		if !rec.res.Exact || len(ms) != 1 {
			r.problem("exact query %d: exact=%v with %d matches", rec.op.arg, rec.res.Exact, len(ms))
			continue
		}
		if checkMatch(rec, ms[0]) {
			exact = append(exact, rec)
		}
	}
	// Brute force: nothing the server had acked before the query was sent
	// may be closer than its answer.
	qs := make([][]float32, len(exact))
	bounds := make([]float64, len(exact))
	for i, rec := range exact {
		qs[i] = in.queries.At(rec.op.arg)
		d := rec.res.Matches[0].Distance
		bounds[i] = d * d * (1 - 2e-4)
	}
	closer, err := bruteForce1NN(col, qs, bounds)
	if err != nil {
		return 0, err
	}
	for i, m := range closer {
		if m.Position < 0 {
			continue
		}
		rec := exact[i]
		if p, ok := closestAcked(col, qs[i], bounds[i], appendAcked, rec.start); ok {
			r.problem("exact query %d: answered %v, brute force finds position %d closer", rec.op.arg, rec.res.Matches[0].Distance, p)
		}
	}
	r.logf("checked %d answers (%d exact against brute force) and %d acked appends", len(recs)-len(acks), len(exact), len(acks))
	r.logf("extra approx_short_answers %d count approximate answers with fewer than %d matches", short, liveK)
	var positions []int
	for _, a := range acks {
		for i := 0; i < liveBatch; i++ {
			positions = append(positions, a.first+i)
		}
	}
	return refused, r.checkDurable(dir, positions, col)
}

// closestAcked scans every series acked before t (boot-time series
// included) for one closer than bound (squared) to q.
func closestAcked(col *series.Collection, q []float32, bound float64, acked []time.Time, t time.Time) (int, bool) {
	for p := 0; p < col.Count(); p++ {
		if p < liveBase+liveTail || (!acked[p].IsZero() && acked[p].Before(t)) {
			if vector.SquaredEuclideanEarlyAbandon(col.At(p), q, bound) < bound {
				return p, true
			}
		}
	}
	return -1, false
}

// checkDurable restarts in-process from the snapshot and WAL the killed
// server left behind and reads back every acked series.
func (r *runCtx) checkDurable(dir string, positions []int, col *series.Collection) error {
	lix, err := messi.LoadLive(filepath.Join(dir, "snap"), &messi.Options{Shards: 2},
		&messi.LiveOptions{WALDir: filepath.Join(dir, "wal"), RebuildThreshold: math.MaxInt32})
	if err != nil {
		r.problem("restart after kill: %v", err)
		return nil
	}
	lost := 0
	for _, p := range positions {
		got, err := lix.Series(p)
		if err != nil || !sameRow(got, col.At(p)) {
			lost++
		}
	}
	if lost > 0 {
		r.problem("%d of %d acked series unreadable after restart", lost, len(positions))
	}
	r.logf("restart after kill: %d series, all %d acked appends read back: %v", lix.Len(), len(positions), lost == 0)
	if err := lix.Close(); err != nil {
		return fmt.Errorf("close restarted index: %w", err)
	}
	return nil
}

func sameRow(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
