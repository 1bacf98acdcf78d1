package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	messi "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/tree"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Layers that sit off a workload's own path are still measured on every
// workload, on its data, so each per-layer figure exists everywhere and
// can be seen to stay flat where a change should not reach it.
const (
	probePrefix  = 50_000 // series behind the off-path live, persist and http probes
	probeTail    = 1_024  // series appended for the live and wal probes
	probeBudget  = time.Second
	probeQueries = 32
	probeBand    = 0.1 // DTW band of the kernel probes on every workload
)

// probeIn is what the in-process layer replays of a traced run get.
type probeIn struct {
	kind    dataset.Kind
	data    *series.Collection // the workload's indexed series
	queries [][]float32
	pub     *messi.Index                          // a public index over data
	sx      *shard.Index                          // the workload's shard layout over data; nil means one shard
	request func(q []float32) messi.SearchRequest // the workload's main query
	tail    [][]float32                           // series appended on top; nil means generated

	// live-serve only: its prepared boot state, and that its live and
	// http layers were already read from messi-serve.
	snapshot, walDir string
	server           bool
}

func approxKNN(q []float32) core.Request {
	return core.Request{Query: q, K: liveK, Mode: core.ModeApprox}
}

// untilBudget calls fn for i = 0, 1, ... until the probe budget is spent
// or max calls were made, and at least min times.
func untilBudget(minCalls, maxCalls int, fn func(i int) error) error {
	end := time.Now().Add(probeBudget)
	for i := 0; i < maxCalls && (i < minCalls || time.Now().Before(end)); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// alternate runs the two sides of a paired measurement, a first on even
// i and b first on odd i, so neither side always finds the caches the
// other one warmed.
func alternate(i int, a, b func() error) error {
	if i%2 == 1 {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	return b()
}

func since(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func (r *runCtx) probeLayers(p probeIn) error {
	L := p.data.Length
	var (
		bt  core.BuildTiming
		ci  *core.Index
		err error
	)
	r.tr.timed("core/core.BuildTimed", func() { ci, err = core.BuildTimed(p.data, core.Options{}, &bt) })
	if err != nil {
		return err
	}
	note := fmt.Sprintf("core.BuildTimed over %d series", p.data.Count())
	r.metric("core.build_summarize_s", bt.Summarize.Seconds(), "s", note)
	r.metric("core.build_tree_s", bt.TreeBuild.Seconds(), "s", note)
	if p.sx == nil {
		p.sx = shard.Wrap(ci)
	}
	if p.tail == nil {
		t, err := dataset.Generate(p.kind, probeTail, L, derive(r.seed, "tail"))
		if err != nil {
			return err
		}
		p.tail = rowsOf(t)
	}
	if err := r.probeKernels(p, ci); err != nil {
		return err
	}
	if err := r.probeEngine(p); err != nil {
		return err
	}
	if err := r.probeShards(p); err != nil {
		return err
	}
	if err := r.probeLive(p); err != nil {
		return err
	}
	if err := r.probeWAL(p); err != nil {
		return err
	}
	return r.probePersistHTTP(p)
}

// probeKernels times the distance kernels on the workload's data: the
// MINDIST table over every node word of the real tree, and the
// Euclidean, LB_Keogh and DTW kernels against each query's final
// Euclidean BSF.
func (r *runCtx) probeKernels(p probeIn, ci *core.Index) error {
	nq := min(probeQueries, len(p.queries))
	bsf := make([]float64, nq)
	for i := range bsf {
		m, err := ci.Search(p.queries[i], core.SearchOptions{})
		if err != nil {
			return err
		}
		bsf[i] = m.Dist
	}
	type word struct{ sym, bits []uint8 }
	var words []word
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n == nil {
			return
		}
		words = append(words, word{n.Symbols, n.Bits})
		walk(n.Left)
		walk(n.Right)
	}
	for l := 0; l < ci.Tree.RootCount(); l++ {
		walk(ci.Tree.Root(l))
	}
	var sink float64
	table := ci.Schema.NewDistTable()
	buf := make([]float64, ci.Schema.Segments)
	calls := 0
	start := time.Now()
	for i := 0; i < nq; i++ {
		table.BuildPAA(paa.Transform(p.queries[i], ci.Schema.Segments, buf))
		for _, w := range words {
			sink += table.MinDistPrefix(w.sym, w.bits)
		}
		calls += len(words)
	}
	r.tr.record(0, 0, 0, "kernels/isax.DistTable.MinDistPrefix", start, time.Now())
	r.metric("kernels.mindist_ns", float64(time.Since(start))/float64(calls), "ns",
		fmt.Sprintf("per call, %d node words x %d queries", len(words), nq))

	n := p.data.Count()
	sample := func(k int) []int {
		pos := make([]int, k)
		for i := range pos {
			pos[i] = int(int64(i) * int64(n) / int64(k))
		}
		return pos
	}
	perCall := func(name string, positions []int, queries int, fn func(x []float32, i int) float64) {
		start := time.Now()
		for i := 0; i < queries; i++ {
			for _, pos := range positions {
				sink += fn(p.data.At(pos), i)
			}
		}
		r.tr.record(0, 0, 0, "kernels/"+name, start, time.Now())
		r.metric("kernels."+map[string]string{"vector.SquaredEuclideanEarlyAbandon": "euclid_ns",
			"dtw.LBKeogh": "lbkeogh_ns", "dtw.Distance": "dtw_ns"}[name],
			float64(time.Since(start))/float64(len(positions)*queries), "ns",
			fmt.Sprintf("per %s call, %d series x %d queries, limit = final Euclidean BSF", name, len(positions), queries))
	}
	positions := sample(min(n, 8192))
	perCall("vector.SquaredEuclideanEarlyAbandon", positions, nq, func(x []float32, i int) float64 {
		return vector.SquaredEuclideanEarlyAbandon(x, p.queries[i], bsf[i])
	})
	band := dtw.WindowSize(p.data.Length, probeBand)
	uppers, lowers := make([][]float32, nq), make([][]float32, nq)
	for i := range uppers {
		uppers[i], lowers[i] = dtw.Envelope(p.queries[i], band)
	}
	perCall("dtw.LBKeogh", positions, nq, func(x []float32, i int) float64 {
		return dtw.LBKeogh(x, lowers[i], uppers[i], bsf[i])
	})
	perCall("dtw.Distance", sample(min(n, 256)), min(nq, 16), func(x []float32, i int) float64 {
		return dtw.Distance(p.queries[i], x, band, bsf[i])
	})
	if math.IsNaN(sink) {
		r.logf("kernel sink %v", sink) // keeps the kernel calls observable
	}
	return nil
}

// probeEngine measures the public API's own cost (messi.Engine.Do minus
// engine.Engine.Do on the same approximate request) and the allocations
// of one in-process query of the workload's kind with one client.
func (r *runCtx) probeEngine(p probeIn) error {
	pub := p.pub.NewEngine(nil)
	defer pub.Close()
	inner := engine.NewSharded(p.sx, engine.Options{})
	defer inner.Close()
	ctx := context.Background()
	var pubLat, innerLat []float64
	err := untilBudget(200, 2000, func(i int) error {
		q := p.queries[i%len(p.queries)]
		return alternate(i, func() error {
			start := time.Now()
			_, err := pub.Do(ctx, messi.SearchRequest{Query: q, K: liveK, Mode: messi.ModeApprox})
			r.tr.record(0, 0, 0, "api/messi.Engine.Do", start, time.Now())
			pubLat = append(pubLat, since(start))
			return err
		}, func() error {
			start := time.Now()
			_, err := inner.Do(approxKNN(q))
			r.tr.record(0, 0, 0, "engine/engine.Engine.Do", start, time.Now())
			innerLat = append(innerLat, since(start))
			return err
		})
	})
	if err != nil {
		return err
	}
	r.metric("api.overhead_us", 1000*(median(pubLat)-median(innerLat)), "us",
		fmt.Sprintf("median messi.Engine.Do - median engine.Engine.Do, approx %d-NN, %d pairs", liveK, len(pubLat)))

	var before, after runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&before)
	err = untilBudget(3, 500, func(i int) error {
		calls++
		_, err := pub.Do(ctx, p.request(p.queries[i%len(p.queries)]))
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("runtime.MemStats delta over %d sequential messi.Engine.Do", calls)
	r.metric("engine.allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(calls), "count", note)
	r.metric("engine.bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/float64(calls), "bytes", note)
	return nil
}

// probeShards compares shard.Index.Do with each shard searched alone, on
// approximate 10-NN requests, alternating which side runs first. A
// one-shard workload has no fan-out, so there the probe splits the data
// prefix into two shards.
func (r *runCtx) probeShards(p probeIn) error {
	sx := p.sx
	if sx.NumShards() == 1 {
		pre, err := p.prefix()
		if err != nil {
			return err
		}
		if sx, err = shard.Build(pre, 2, core.Options{}); err != nil {
			return err
		}
	}
	singles := make([]*shard.Index, sx.NumShards())
	for s := range singles {
		singles[s] = shard.Wrap(sx.Shard(s))
	}
	var overhead, imbalance []float64
	err := untilBudget(100, 2000, func(i int) error {
		req := approxKNN(p.queries[i%len(p.queries)])
		var all float64
		per := make([]float64, len(singles))
		err := alternate(i, func() error {
			start := time.Now()
			_, err := sx.Do(req, core.SearchOptions{})
			all = since(start)
			r.tr.record(0, 0, int64(i)+1, "shard/shard.Index.Do", start, time.Now())
			return err
		}, func() error {
			for s, one := range singles {
				start := time.Now()
				if _, err := one.Do(req, core.SearchOptions{}); err != nil {
					return err
				}
				per[s] = since(start)
				r.tr.record(0, 0, int64(i)+1, "shard/one shard alone", start, time.Now())
			}
			return nil
		})
		if err != nil {
			return err
		}
		slowest := 0.0
		for _, d := range per {
			slowest = max(slowest, d)
		}
		overhead = append(overhead, all-slowest)
		imbalance = append(imbalance, slowest/mean(per))
		return nil
	})
	if err != nil {
		return err
	}
	note := fmt.Sprintf("%d shards of %d series, %d approx %d-NN queries", len(singles), sx.Len(), len(overhead), liveK)
	r.metric("shard.fanout_overhead_ms", median(overhead), "ms", "median of shard.Index.Do - slowest shard alone, "+note)
	r.metric("shard.imbalance", mean(imbalance), "ratio", "mean of slowest shard / mean shard, "+note)
	return nil
}

// prefix returns a copy of the first probePrefix series of the data.
func (p probeIn) prefix() (*series.Collection, error) {
	n := min(probePrefix, p.data.Count())
	return series.NewCollection(append([]float32(nil), p.data.Data[:n*p.data.Length]...), p.data.Length)
}

// probeLive replays live.Index.Do against engine.DoSeeded with the delta
// holding the tail: the difference is the delta scan. On live-serve the
// live index wraps the served base; elsewhere it is built over the data
// prefix, and a Flush measures one rebuild.
func (r *runCtx) probeLive(p probeIn) error {
	reg := messi.NewMetrics()
	opts := live.Options{RebuildThreshold: math.MaxInt32, Metrics: reg} // a sharded base sets Shards
	var (
		lx  *live.Index
		err error
	)
	if p.server {
		lx, err = live.NewFromIndex(p.sx, opts)
	} else {
		var pre *series.Collection
		if pre, err = p.prefix(); err == nil {
			lx, err = live.New(p.data.Length, pre, opts)
		}
	}
	if err != nil {
		return err
	}
	defer lx.Close()
	if _, err := lx.AppendBatch(p.tail); err != nil {
		return err
	}
	var withDelta, baseOnly []float64
	err = untilBudget(100, 2000, func(i int) error {
		req := approxKNN(p.queries[i%len(p.queries)])
		return alternate(i, func() error {
			start := time.Now()
			_, err := lx.Do(req)
			r.tr.record(0, 0, 0, "live/live.Index.Do", start, time.Now())
			withDelta = append(withDelta, since(start))
			return err
		}, func() error {
			start := time.Now()
			_, err := lx.Engine().DoSeeded(req, nil)
			r.tr.record(0, 0, 0, "engine/engine.Engine.DoSeeded", start, time.Now())
			baseOnly = append(baseOnly, since(start))
			return err
		})
	})
	if err != nil {
		return err
	}
	r.metric("live.delta_scan_ms", median(withDelta)-median(baseOnly), "ms",
		fmt.Sprintf("median live.Index.Do - median engine.DoSeeded, %d-series delta, %d pairs", len(p.tail), len(withDelta)))
	if p.server {
		return nil
	}
	r.metric("live.delta_series", float64(lx.Stats().DeltaSeries), "count", "delta of the prefix live index")
	s0 := promText(reg)
	if d := r.tr.timed("live/live.Index.Flush", func() { err = lx.Flush() }); err != nil {
		return fmt.Errorf("flush after %v: %w", d, err)
	}
	s1 := promText(reg)
	note := fmt.Sprintf("one Flush of the %d-series prefix live index", probePrefix)
	r.metric("live.rebuilds", s1.sum("messi_live_rebuilds_total")-s0.sum("messi_live_rebuilds_total"), "count", note)
	r.metric("live.rebuild_s", s1.sum("messi_live_rebuild_seconds_sum")-s0.sum("messi_live_rebuild_seconds_sum"), "s", note)
	return nil
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// probeWAL appends the tail as 16-row batches under fsync-per-append to
// a fresh log, and replays a log tail (live-serve: its prepared one).
func (r *runCtx) probeWAL(p probeIn) error {
	L := p.data.Length
	dir := filepath.Join(r.dir, "probe-wal")
	l, err := wal.Open(dir, L, &wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var lat []float64
	for b := 0; b+liveBatch <= len(p.tail); b += liveBatch {
		start := time.Now()
		if err := l.Append(int64(b), p.tail[b:b+liveBatch]); err != nil {
			l.Close()
			return err
		}
		r.tr.record(0, 0, 0, "wal/wal.Log.Append", start, time.Now())
		lat = append(lat, since(start))
	}
	if err := l.Close(); err != nil {
		return err
	}
	user := int64(len(lat) * liveBatch * L * 4)
	r.metric("wal.append_ms", median(lat), "ms", fmt.Sprintf("median of %d %d-row appends, sync always", len(lat), liveBatch))
	r.metric("wal.bytes_per_user_byte", float64(dirBytes(dir))/float64(user), "ratio", "log directory bytes / series bytes appended")

	src := dir
	if p.walDir != "" {
		src = p.walDir
	}
	replayDir := filepath.Join(r.dir, "probe-replay")
	if err := copyDir(src, replayDir); err != nil {
		return err
	}
	rows := 0
	start := time.Now()
	l, err = wal.Open(replayDir, L, &wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	err = l.Replay(l.Start(), func(int64, []float32) error { rows++; return nil })
	end := time.Now()
	r.tr.record(0, 0, 0, "wal/wal.Open+Replay", start, end)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.metric("wal.replay_s", end.Sub(start).Seconds(), "s", fmt.Sprintf("wal.Open + Replay of %d series", rows))
	return nil
}

// probePersistHTTP loads a snapshot with messi.LoadLive (live-serve: its
// prepared boot snapshot; elsewhere a snapshot of the data prefix) and,
// off live-serve, serves that snapshot with messi-serve to measure the
// HTTP layer with traced approximate queries.
func (r *runCtx) probePersistHTTP(p probeIn) error {
	path := p.snapshot
	if path == "" {
		pre, err := p.prefix()
		if err != nil {
			return err
		}
		ix, err := messi.BuildFlat(pre.Data, pre.Length, nil)
		if err != nil {
			return err
		}
		path = filepath.Join(r.dir, "probe-snap")
		if err := ix.Save(path); err != nil {
			return err
		}
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		lix, err := messi.LoadLive(path, nil, nil)
		if err != nil {
			return err
		}
		loads = append(loads, time.Since(start).Seconds())
		r.tr.record(0, 0, 0, "persist/messi.LoadLive", start, time.Now())
		if err := lix.Close(); err != nil {
			return err
		}
	}
	r.metric("persist.load_s", median(loads), "s", fmt.Sprintf("median of 3 messi.LoadLive of %s", filepath.Base(path)))
	if p.server {
		return nil
	}

	srv, _, err := startServer(r.serve, filepath.Join(r.dir, "probe-serve.log"), "-snapshot", path)
	if err != nil {
		return err
	}
	defer srv.stop()
	s1, err := srv.scrape()
	if err != nil {
		return err
	}
	var clientMs, elapsedMs []float64
	err = untilBudget(100, 2000, func(i int) error {
		b := append(append([]byte(`{"query":`), appendVec(nil, p.queries[i%len(p.queries)])...),
			fmt.Sprintf(`,"k":%d,"mode":"approx","trace":true}`, liveK)...)
		start := time.Now()
		status, body, err := srv.post("/v1/knn", b)
		if err != nil {
			return err
		}
		var res wireResult
		if err := json.Unmarshal(body, &res); err != nil || status != 200 || res.Trace == nil {
			return fmt.Errorf("probe query: status %d, %v", status, err)
		}
		end := time.Now()
		r.tr.record(0, 0, int64(i)+1, "http/POST /v1/knn (probe server)", start, end)
		clientMs = append(clientMs, float64(end.Sub(start))/1e6)
		elapsedMs = append(elapsedMs, res.Trace.ElapsedSeconds*1000)
		return nil
	})
	if err != nil {
		return err
	}
	s2, err := srv.scrape()
	if err != nil {
		return err
	}
	server, n := histMean(s1, s2, "messi_http_request_seconds", `path="/v1/knn"`)
	note := fmt.Sprintf("messi-serve over the %d-series prefix snapshot, %.0f traced approx queries", probePrefix, n)
	r.metric("http.server_ms", server, "ms", note)
	r.metric("http.handler_overhead_ms", server-mean(elapsedMs), "ms", "server time - trace.elapsed, "+note)
	r.metric("http.client_overhead_ms", mean(clientMs)-server, "ms", "client latency - server time, "+note)
	return nil
}
