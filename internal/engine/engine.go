package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ErrClosed is returned by queries submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrQueryPanicked is returned (wrapped) by a query whose execution
// panicked on a pool worker. The panic is confined to that one query:
// the worker recovers, the stack goes to slog and the
// messi_query_panics_total counter, and the pool keeps serving every
// other query. It is core.ErrQueryPanicked, so errors.Is matches panics
// from spawn-mode searches too.
var ErrQueryPanicked = core.ErrQueryPanicked

// fpUnit fires inside a dispatched query work unit, where the
// worker-panic tests inject a poisoned task to prove one bad query
// cannot take the pool down.
var fpUnit = fault.Register("engine.unit")

// ErrNoIndex is returned by queries while the engine has no index yet (an
// engine may be started before its first generation is built and receive
// one later via Swap).
var ErrNoIndex = errors.New("engine: no index installed")

// Options configures an Engine. Zero fields inherit from the index
// options (which themselves default to the paper's values).
type Options struct {
	// PoolWorkers is the number of long-lived worker goroutines shared
	// by all queries. Default: the index's SearchWorkers (Ns).
	PoolWorkers int
	// QueryWorkers is the number of work units each query dispatches per
	// phase — the per-query parallelism. Default: PoolWorkers (a lone
	// query owns the whole pool).
	QueryWorkers int
	// Queues is the number of priority queues per query (Nq). Default:
	// the index's QueueCount.
	Queues int
	// MaxConcurrent is the number of queries allowed to execute
	// concurrently; further queries wait for admission. Default:
	// max(1, PoolWorkers/QueryWorkers), the pool's saturation point.
	MaxConcurrent int
	// DegradeEpsilon, when positive, makes the admission gate trade
	// answer quality for latency under overload: an exact Do request
	// arriving while MaxConcurrent queries are already executing is
	// degraded to an ε-bounded one with this ε instead of paying full
	// queueing plus full exact-search latency. Requests that ask for a
	// specific mode (approximate, ε, deadline) are never rewritten, and
	// the result honestly reports Exact=false plus the ε actually
	// proven. Zero (the default) never degrades. Only Do requests are
	// subject to degradation; SearchBatch stays exact.
	DegradeEpsilon float64
	// Metrics, when non-nil, receives the engine's production telemetry:
	// admission-gate pressure, per-mode latency histograms, answer
	// exactness outcomes, and cumulative pruning counters. Nil (the
	// default) disables every measurement — the hot path pays a single
	// nil check, preserving benchmark numbers.
	Metrics *metrics.Registry
}

func (o Options) withDefaults(ixOpts core.Options) Options {
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = ixOpts.SearchWorkers
	}
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = core.DefaultSearchWorkers
	}
	if o.QueryWorkers <= 0 || o.QueryWorkers > o.PoolWorkers {
		o.QueryWorkers = o.PoolWorkers
	}
	if o.Queues <= 0 {
		o.Queues = ixOpts.QueueCount
	}
	if o.Queues <= 0 {
		o.Queues = core.DefaultQueueCount
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = o.PoolWorkers / o.QueryWorkers
		if o.MaxConcurrent < 1 {
			o.MaxConcurrent = 1
		}
	}
	return o
}

// task is one unit of query work executed by a pool goroutine; pid is the
// goroutine's index in the pool.
type task func(pid int)

// Engine is a persistent query engine over a swappable index: the current
// index generation — a shard group of one or more core indexes — is held
// behind an atomic pointer, and Swap atomically replaces it (RCU-style —
// queries already executing finish against the generation they loaded at
// admission; new queries see the new one). Sharded generations are
// answered by fanning per-shard work units onto the same pool, threading
// one shared best-so-far through every shard's search. It is safe for
// concurrent use by multiple goroutines. Close it when done to release
// the pool.
type Engine struct {
	sx     atomic.Pointer[shard.Index]
	opts   Options
	met    *engMetrics // nil when Options.Metrics is nil
	tasks  chan task
	admit  chan struct{}
	states sync.Pool
	wg     sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight queries
	closed bool
}

// New starts an engine over the given (unsharded) index. ix may be nil —
// queries fail with ErrNoIndex until a generation is installed via Swap —
// which lets a live index start empty and stream data in.
func New(ix *core.Index, opts Options) *Engine {
	return NewSharded(shard.Wrap(ix), opts)
}

// NewSharded starts an engine over a sharded index group. sx may be nil
// (see New).
func NewSharded(sx *shard.Index, opts Options) *Engine {
	var ixOpts core.Options
	if sx != nil {
		ixOpts = sx.Opts()
	}
	opts = opts.withDefaults(ixOpts)
	e := &Engine{
		opts:  opts,
		met:   newEngMetrics(opts.Metrics, opts),
		tasks: make(chan task, 4*opts.PoolWorkers),
		admit: make(chan struct{}, opts.MaxConcurrent),
	}
	e.sx.Store(sx)
	opts.Metrics.GaugeFunc("messi_engine_shards",
		"Shards in the currently installed index generation.", func() float64 {
			cur := e.sx.Load()
			if cur == nil {
				return 0
			}
			return float64(cur.NumShards())
		})
	e.states.New = func() any { return core.NewQueryState() }
	e.wg.Add(opts.PoolWorkers)
	for pid := 0; pid < opts.PoolWorkers; pid++ {
		go func(pid int) {
			defer e.wg.Done()
			for t := range e.tasks {
				e.runTask(t, pid)
			}
		}(pid)
	}
	return e
}

// runTask executes one task with a backstop recover: every query task
// carries its own per-query recovery, so a panic reaching here means a
// task escaped it — log and count it rather than killing the process
// (a panicking worker goroutine would otherwise strand every query
// whose units it still owed).
func (e *Engine) runTask(t task, pid int) {
	defer func() {
		if r := recover(); r != nil {
			e.panicErr(r)
		}
	}()
	t(pid)
}

// panicErr converts a recovered panic value into an ErrQueryPanicked
// error (see core.PanicError) and counts it in messi_query_panics_total.
func (e *Engine) panicErr(r any) error {
	e.met.recordPanic()
	return core.PanicError(r)
}

// panicBox collects the first panic of one query's work units.
type panicBox struct {
	mu  sync.Mutex
	err error
}

func (b *panicBox) note(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *panicBox) load() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Index returns the current generation's single core index — nil when no
// generation is installed or when the generation is sharded (use Shards).
func (e *Engine) Index() *core.Index {
	sx := e.sx.Load()
	if sx == nil {
		return nil
	}
	return sx.Single()
}

// Shards returns the current sharded generation (nil if none installed).
func (e *Engine) Shards() *shard.Index { return e.sx.Load() }

// Swap atomically installs a new (unsharded) index generation, returning
// the previous generation's single index (nil when it was sharded). In-
// flight queries keep running against the generation they loaded; queries
// admitted after Swap see the new one. The old generation may be released
// once its queries drain (Go's GC handles this — callers need no
// quiescence protocol).
func (e *Engine) Swap(ix *core.Index) *core.Index {
	prev := e.sx.Swap(shard.Wrap(ix))
	if prev == nil {
		return nil
	}
	return prev.Single()
}

// SwapSharded is Swap for sharded generations.
func (e *Engine) SwapSharded(sx *shard.Index) *shard.Index {
	return e.sx.Swap(sx)
}

// acquire blocks until an admission slot is free, recording queue depth
// and wait time when metrics are on. Release by receiving from e.admit.
func (e *Engine) acquire() {
	if e.met == nil {
		e.admit <- struct{}{}
		return
	}
	start := e.met.waitStart()
	e.admit <- struct{}{}
	e.met.waitEnd(start)
	e.met.admitted.Inc()
}

// run executes an already-admitted request on the pool and returns its
// matches — the one pooled path under every request kind and mode. base
// carries the query's QoS state (Counters and Breakdown come with req);
// worker shape, seeds, and the sharded fan-out plumbing are filled in
// here. A sharded
// generation gets one run per non-empty shard, all dispatched as units on
// the same pool: 1-NN runs share one best-so-far, k-NN runs merge their
// top-k sets afterwards.
func (e *Engine) run(sx *shard.Index, req core.Request, seeds []core.Match, base core.SearchOptions) (ms []core.Match, err error) {
	// Inline preparation (below) runs on the caller's goroutine; a
	// panic there must fail this query alone, like one on a pool unit.
	defer func() {
		if r := recover(); r != nil {
			ms, err = nil, e.panicErr(r)
		}
	}()
	base.Workers = e.opts.QueryWorkers
	base.Queues = e.opts.Queues
	base.Seeds = seeds
	var runs []*core.SearchRun
	var sts []*core.QueryState
	if single := sx.Single(); single != nil {
		st := e.states.Get().(*core.QueryState)
		run, err := single.NewRun(req, st, base)
		if err != nil {
			e.states.Put(st)
			return nil, err
		}
		runs, sts = []*core.SearchRun{run}, []*core.QueryState{st}
	} else {
		e.met.recordFanout()
		// Seeds go to every run: the k-NN sets each need them, and
		// re-offering them to the shared BSF is a no-op.
		base.Shared = stats.NewBSF() // ignored by k-NN runs
		runs, sts, err = e.shardRuns(sx, func(sh *core.Index, s int, st *core.QueryState) (*core.SearchRun, error) {
			opt := base
			opt.GlobalPos = sx.GlobalPosFunc(s)
			return sh.NewRun(req, st, opt)
		})
		if err != nil {
			return nil, err
		}
	}
	rec := &panicBox{}
	e.execute(runs, rec)
	if perr := rec.load(); perr != nil {
		// Any of the states may be the poisoned one; discard them all
		// rather than returning them to the pool (sync.Pool refills on
		// demand).
		return nil, perr
	}
	if len(runs) == 1 {
		ms = runs[0].Matches()
	} else {
		lists := make([][]core.Match, len(runs))
		for i, run := range runs {
			lists[i] = run.Matches()
		}
		ms = shard.MergeKNN(lists, max(req.K, 1))
	}
	e.putStates(sts)
	return ms, nil
}

// shardRuns prepares one run per non-empty shard, borrowing a QueryState
// for each. Preparation — the query's PAA/table build plus the
// bound-seeding approximate search — is fanned out over the pool too, so
// a query's setup latency does not grow linearly with S; approximate
// answers landing in the shared bound concurrently tighten each other
// exactly as the drain phases do. On any preparation error every
// borrowed state is returned and the first error wins.
func (e *Engine) shardRuns(sx *shard.Index,
	mk func(sh *core.Index, s int, st *core.QueryState) (*core.SearchRun, error)) ([]*core.SearchRun, []*core.QueryState, error) {

	S := sx.NumShards()
	runs := make([]*core.SearchRun, S)
	sts := make([]*core.QueryState, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		sh := sx.Shard(s)
		if sh == nil {
			continue
		}
		st := e.states.Get().(*core.QueryState)
		sts[s] = st
		wg.Add(1)
		e.tasks <- func(pid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					sts[s] = nil // poisoned; never back to the pool
					errs[s] = e.panicErr(r)
				}
			}()
			runs[s], errs[s] = mk(sh, s, st)
		}
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	outRuns := runs[:0]
	outSts := sts[:0]
	for s := 0; s < S; s++ {
		if firstErr != nil {
			if sts[s] != nil {
				e.states.Put(sts[s])
			}
			continue
		}
		if runs[s] != nil {
			outRuns = append(outRuns, runs[s])
			outSts = append(outSts, sts[s])
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return outRuns, outSts, nil
}

func (e *Engine) putStates(sts []*core.QueryState) {
	for _, st := range sts {
		e.states.Put(st)
	}
}

// SearchBatch answers many independent exact 1-NN queries, running up to
// MaxConcurrent of them through the pool at once. result[i] answers
// queries[i]. Batch queries are never degraded (Options.DegradeEpsilon).
// On error it still returns the full slice (failed entries are zero)
// along with the first error encountered.
func (e *Engine) SearchBatch(queries [][]float32) ([]core.Match, error) {
	out := make([]core.Match, len(queries))
	errs := make([]error, len(queries))
	// MaxConcurrent submitter goroutines claiming queries via Fetch&Inc:
	// admission caps useful parallelism there anyway, and a fixed fleet
	// keeps one huge batch from allocating one goroutine per query.
	submitters := e.opts.MaxConcurrent
	if submitters > len(queries) {
		submitters = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				var res core.Result
				res, errs[i] = e.do(core.Request{Query: queries[i]}, nil, false)
				if errs[i] == nil {
					out[i] = res.Matches[0]
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("engine: batch query %d: %w", i, err)
		}
	}
	return out, nil
}

// execute runs prepared sibling runs (one per shard, or a single run)
// through the pool: every run's insert units are dispatched together and
// awaited before any drain unit starts — a single all-inserted barrier
// across the whole fan-out, so a shard finishing its tree pass early keeps
// its bound improvements visible to the shards still traversing. The
// barrier is awaited here, never inside a pool goroutine. Settled runs
// (approximate answers complete after init) dispatch nothing. A unit
// panic is recorded in rec and the drain phase skipped — the answer is
// discarded anyway, and partially-filled queues are not worth walking.
func (e *Engine) execute(runs []*core.SearchRun, rec *panicBox) {
	pending := runs
	if slices.ContainsFunc(runs, (*core.SearchRun).Settled) {
		pending = slices.DeleteFunc(slices.Clone(runs), (*core.SearchRun).Settled)
	}
	if len(pending) == 0 {
		return
	}
	e.dispatch(pending, (*core.SearchRun).InsertPhase, rec)
	if rec.load() != nil {
		return
	}
	e.dispatch(pending, (*core.SearchRun).DrainPhase, rec)
}

// dispatch enqueues QueryWorkers units of phase for every run and waits
// for all of them. Panics in a unit are recovered on the pool worker
// (before its wg.Done fires, so the barrier never deadlocks) and
// recorded.
func (e *Engine) dispatch(runs []*core.SearchRun, phase func(*core.SearchRun, int), rec *panicBox) {
	var wg sync.WaitGroup
	wg.Add(len(runs) * e.opts.QueryWorkers)
	for _, run := range runs {
		for i := 0; i < e.opts.QueryWorkers; i++ {
			e.tasks <- func(pid int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						rec.note(e.panicErr(r))
					}
				}()
				if err := fpUnit.Hit(); err != nil {
					rec.note(err)
					return
				}
				phase(run, pid)
			}
		}
	}
	wg.Wait()
}

// Close waits for in-flight queries to finish, stops the pool, and
// releases its goroutines. Queries submitted after Close return
// ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.tasks)
	e.mu.Unlock()
	e.wg.Wait()
}
