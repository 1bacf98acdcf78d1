package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	messi "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/series"
)

// inprocSpec is a workload served in-process by a default messi.Engine.
type inprocSpec struct {
	kind    dataset.Kind
	count   int     // series indexed
	length  int     // points per series
	clients int     // closed-loop clients
	pool    int     // distinct queries, cycled in seeded permutations
	dtw     bool    // exact DTW 1-NN instead of exact Euclidean 1-NN
	window  float64 // DTW band as a fraction of the series length
}

var (
	// exactRandomWalk is the paper's headline workload: ~1 GiB of
	// random walks, far beyond the last-level cache.
	exactRandomWalk = inprocSpec{kind: dataset.RandomWalk, count: 1_000_000, length: 256, clients: 2, pool: 512}
	// dtwSALD reaches the DTW traversal and kernels; ~26 MB fits in cache.
	dtwSALD = inprocSpec{kind: dataset.SALDLike, count: 50_000, length: 128, clients: 1, pool: 512, dtw: true, window: 0.1}
)

const (
	warmUp     = time.Second // untimed head of every closed loop
	setupRuns  = 3           // set-ups per untraced run; setup_s is their median
	opsPerPool = 64          // op sequence length, in pool permutations
)

// inprocInputs are everything a run of an in-process workload feeds the
// system, all derived from the workload seed.
type inprocInputs struct {
	data    *series.Collection
	queries *series.Collection
	ops     []int // query index of each operation, in issue order
}

func makeInprocInputs(spec inprocSpec, seed int64) (inprocInputs, error) {
	var data, queries *series.Collection
	var err error
	if spec.kind == dataset.RandomWalk {
		if data, err = dataset.Generate(spec.kind, spec.count, spec.length, derive(seed, "data")); err != nil {
			return inprocInputs{}, err
		}
		if queries, err = dataset.Queries(spec.kind, spec.pool, spec.length, derive(seed, "queries")); err != nil {
			return inprocInputs{}, err
		}
	} else {
		parts, err := generateParts(spec.kind, spec.length, corpusSeed(spec.kind), spec.count, queryCandidates)
		if err != nil {
			return inprocInputs{}, err
		}
		data = parts[0]
		if queries, err = pick(parts[1], spec.pool, derive(seed, "queries")); err != nil {
			return inprocInputs{}, err
		}
	}
	rng := rand.New(rand.NewSource(derive(seed, "ops")))
	ops := make([]int, 0, spec.pool*opsPerPool)
	for i := 0; i < opsPerPool; i++ {
		ops = append(ops, rng.Perm(spec.pool)...)
	}
	return inprocInputs{data: data, queries: queries, ops: ops}, nil
}

// queryCandidates is the number of series drawn beside a fixed corpus
// that the workload seed picks its queries from.
const queryCandidates = 8192

// corpusSeed is the fixed generator seed of a stand-in for a real corpus.
// The SALD-like and seismic-like generators first draw a dictionary of
// prototypes from their seed, and how well the index prunes depends on
// that dictionary far more than on anything else a seed changes (median
// DTW latency moved 31–101 ms across five seeds on a 2-core Xeon VM).
// Like the real corpora they stand in for, these collections are
// therefore fixed; the workload seed draws the queries and the operation
// sequence. Queries come from the same generator stream as the corpus,
// so they share its distribution without being part of it.
func corpusSeed(kind dataset.Kind) int64 { return derive(0, string(kind)+" corpus") }

// pick copies n rows of c chosen by seed.
func pick(c *series.Collection, n int, seed int64) (*series.Collection, error) {
	rows := make([][]float32, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(c.Count())[:n] {
		rows[i] = c.At(j)
	}
	return series.FromSlices(rows)
}

// generateParts draws consecutive collections of the given sizes from one
// generator stream.
func generateParts(kind dataset.Kind, length int, seed int64, counts ...int) ([]*series.Collection, error) {
	total := 0
	for _, c := range counts {
		total += c
	}
	all, err := dataset.Generate(kind, total, length, seed)
	if err != nil {
		return nil, err
	}
	parts := make([]*series.Collection, len(counts))
	lo := 0
	for i, c := range counts {
		hi := lo + c*length
		if parts[i], err = series.NewCollection(all.Data[lo:hi:hi], length); err != nil {
			return nil, err
		}
		lo = hi
	}
	return parts, nil
}

// closedLoop runs clients that each issue their next operation only when
// the previous one has answered, pulling operations from one shared
// sequence, until the deadline. It returns every record.
func closedLoop[R any](clients int, until time.Time, next *atomic.Int64, do func(op int) R) []R {
	outs := make([][]R, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				outs[c] = append(outs[c], do(int(next.Add(1)-1)))
			}
		}()
	}
	wg.Wait()
	var all []R
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// queryRec is one in-process query.
type queryRec struct {
	q          int
	start, end time.Time
	res        messi.Result
	err        error
}

func runInproc(r *runCtx, spec inprocSpec) error {
	t0 := time.Now()
	in, err := makeInprocInputs(spec, r.seed)
	if err != nil {
		return err
	}
	r.logf("hash data %s", hashFloats(in.data.Data))
	r.logf("hash queries %s", hashFloats(in.queries.Data))
	r.logf("hash ops %s", hashInts(in.ops))
	queries := make([][]float32, in.queries.Count())
	for i := range queries {
		queries[i] = in.queries.At(i)
	}

	// Euclidean ground truth is computed before the timed window, DTW
	// ground truth after it (only for the queries the run reached).
	var truth []core.Match
	if !spec.dtw {
		if truth, err = bruteForce1NN(in.data, queries, nil); err != nil {
			return err
		}
	}

	r.logf("untimed preparation %.1f s (inputs and Euclidean ground truth)", time.Since(t0).Seconds())
	setups := setupRuns
	if r.traced {
		setups = 1
	}
	var (
		ix            *messi.Index
		eng           *messi.Engine
		setupS, memMB []float64
	)
	for i := 0; i < setups; i++ {
		if eng != nil {
			eng.Close()
			ix, eng = nil, nil
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		ix, err = messi.BuildFlat(in.data.Data, spec.length, nil)
		if err != nil {
			return err
		}
		eng = ix.NewEngine(nil)
		end := time.Now()
		r.tr.record(0, 0, 0, "api/messi.BuildFlat+NewEngine", start, end)
		setupS = append(setupS, end.Sub(start).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&after)
		memMB = append(memMB, (float64(after.HeapInuse)-float64(before.HeapInuse))/(1<<20))
	}

	request := func(q int, traced bool) messi.SearchRequest {
		return messi.SearchRequest{Query: queries[q], DTW: spec.dtw, Window: spec.window, Trace: traced}
	}
	var next atomic.Int64
	loop := func(e *messi.Engine, seconds float64, traced bool) ([]queryRec, window) {
		do := func(op int) queryRec {
			q := in.ops[op%len(in.ops)]
			start := time.Now()
			res, err := e.Do(context.Background(), request(q, traced))
			end := time.Now()
			if traced {
				r.tr.record(0, 0, int64(op)+1, "api/messi.Engine.Do", start, end)
			}
			return queryRec{q: q, start: start, end: end, res: res, err: err}
		}
		warm := closedLoop(spec.clients, time.Now().Add(warmUp), &next, do)
		w := window{start: time.Now()}
		w.end = w.start.Add(time.Duration(seconds * float64(time.Second)))
		return append(warm, closedLoop(spec.clients, w.end, &next, do)...), w
	}

	var recs []queryRec
	if !r.traced {
		var w window
		recs, w = loop(eng, float64(r.seconds), false)
		eng.Close()
		var lat []float64
		for _, rec := range recs {
			if w.holds(rec.start, rec.end) {
				lat = append(lat, float64(rec.end.Sub(rec.start))/1e6)
			}
		}
		r.metric("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups (BuildFlat + NewEngine)", setups))
		r.metric("qps", float64(len(lat))/w.seconds(), "ops/s", fmt.Sprintf("%d ops in %.1f s, %d clients", len(lat), w.seconds(), spec.clients))
		r.latency("", lat)
		if spec.dtw {
			r.latency("dtw_", lat)
		} else {
			r.latency("exact_", lat)
		}
		r.metric("mem_mb", median(memMB), "MiB", "Go heap in use after set-up minus before, median")
	} else {
		// First half untraced on a default engine, second half traced on
		// an engine with a metrics registry attached.
		half := float64(r.seconds) / 2
		plain, wPlain := loop(eng, half, false)
		eng.Close()
		reg := messi.NewMetrics()
		eng = ix.NewEngine(&messi.EngineOptions{Metrics: reg})
		traced, wTraced := loop(eng, half, true)
		eng.Close()
		recs = append(plain, traced...)
		var nPlain, nTraced int
		var inWindow []messi.Result
		for _, rec := range plain {
			if wPlain.holds(rec.start, rec.end) {
				nPlain++
			}
		}
		for _, rec := range traced {
			if wTraced.holds(rec.start, rec.end) && rec.err == nil {
				nTraced++
				inWindow = append(inWindow, rec.res)
			}
		}
		r.metric("trace.overhead", (float64(nTraced)/wTraced.seconds())/(float64(nPlain)/wPlain.seconds()),
			"ratio", fmt.Sprintf("traced ÷ untraced qps (%d and %d ops)", nTraced, nPlain))
		r.coreTraceMetrics(inWindow, spec.count)
		if err := r.engineMetrics(prom{}, promText(reg)); err != nil {
			return err
		}
		p := probeIn{kind: spec.kind, data: in.data, queries: queries, pub: ix,
			request: func(q []float32) messi.SearchRequest {
				return messi.SearchRequest{Query: q, DTW: spec.dtw, Window: spec.window}
			}}
		if err := r.probeLayers(p); err != nil {
			return err
		}
	}

	// Every answer the run received is checked, warm-up included.
	if spec.dtw {
		used := map[int]bool{}
		var qs [][]float32
		var idx []int
		for _, rec := range recs {
			if !used[rec.q] {
				used[rec.q] = true
				idx = append(idx, rec.q)
				qs = append(qs, queries[rec.q])
			}
		}
		ms, err := bruteForceDTW(in.data, qs, dtw.WindowSize(spec.length, spec.window))
		if err != nil {
			return err
		}
		truth = make([]core.Match, len(queries))
		for i, q := range idx {
			truth[q] = ms[i]
		}
	}
	for _, rec := range recs {
		switch {
		case rec.err != nil:
			r.failed++
		case !rec.res.Exact || len(rec.res.Matches) != 1:
			r.problem("query %d: exact=%v with %d matches", rec.q, rec.res.Exact, len(rec.res.Matches))
		case !sameDist(rec.res.Matches[0].Distance, math.Sqrt(truth[rec.q].Dist)):
			r.problem("query %d: distance %v, brute force %v", rec.q, rec.res.Matches[0].Distance, math.Sqrt(truth[rec.q].Dist))
		}
	}
	r.attempted = len(recs)
	r.logf("checked all %d answers, warm-up included, against brute force", len(recs))
	r.errorRate(0)
	return nil
}
