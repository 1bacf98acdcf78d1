package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/pqueue"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/vector"
)

// fpScanLeaf is the failpoint inside the leaf-scan kernel — the
// deepest point of query execution, where a panic exercises the whole
// recovery chain (pool unit or spawned worker → per-query error wrapping
// ErrQueryPanicked). An Error spec panics too: scanLeaf has no error
// return, and the executors' recovery is exactly what turns worker
// failures into typed per-query errors.
var fpScanLeaf = fault.Register("core.scanleaf")

// SearchOptions configures one query. Zero fields inherit the index
// options (which themselves default to the paper's values).
type SearchOptions struct {
	Workers int // Ns: search worker goroutines
	Queues  int // Nq: priority queues; 1 = MESSI-sq, >1 = MESSI-mq

	// LocalQueues selects the rejected per-thread-queue design the paper
	// discusses in §III-B (one private queue per worker, no sharing or
	// stealing): it suffers load imbalance and exists for the ablation
	// benchmarks. It forces Queues == Workers.
	LocalQueues bool

	// Seeds are externally known candidate matches (for example the best
	// matches from a delta-buffer scan in a live index) applied to the
	// pruning bound before the search starts. They tighten pruning and
	// take part in the answer: a seed whose distance remains best is
	// returned as-is, so its Position may lie outside this index's
	// collection. With GlobalPos set, seed positions are taken as already
	// global and are not remapped.
	Seeds []Match

	// GlobalPos maps this index's local series positions into the
	// caller's global position space (a sharded collection, where this
	// index holds only every S-th series). When set, the pruning bound —
	// the 1-NN BSF or the k-NN top-k — carries global positions: every
	// candidate found in this index is mapped on update, and Best/Matches
	// report global positions. Nil means the identity (an unsharded
	// index).
	GlobalPos func(int64) int64

	// Shared, when non-nil, replaces the run's private 1-NN best-so-far
	// with a caller-owned bound threaded through several concurrent runs —
	// the sharded fan-out, where a tight bound found in one shard prunes
	// the searches of all the others. The shared BSF holds global
	// positions (see GlobalPos); after every sibling run finishes, the
	// fused answer is the shared bound's Best. Ignored by k-NN runs,
	// which merge per-shard top-k sets instead.
	Shared *stats.BSF

	// QoS, when non-nil, carries the query's quality-of-service state:
	// ε-inflated pruning and deadline/cancellation stop checks, with the
	// bookkeeping that proves the answer's quality afterwards. Like
	// Shared, one QoS is threaded through every shard run of a fan-out.
	// Nil means plain exact search with zero added hot-path work.
	QoS *QoS

	// Counters, when non-nil, accumulates operation counts (Figure 17).
	Counters *stats.Counters
	// Breakdown, when non-nil, accumulates per-phase wall time across
	// all workers (Figure 13). Enabling it adds clock reads to hot
	// paths; leave nil when benchmarking end-to-end latency.
	Breakdown *stats.Breakdown
}

func (o SearchOptions) withDefaults(ixOpts Options) SearchOptions {
	if o.Workers <= 0 {
		o.Workers = ixOpts.SearchWorkers
	}
	if o.LocalQueues {
		o.Queues = o.Workers
	} else if o.Queues <= 0 {
		o.Queues = ixOpts.QueueCount
	}
	return o
}

// bound abstracts the pruning threshold shared by all search workers: the
// 1-NN BSF (stats.BSF) or the k-NN top-k set. Load returns the current
// squared pruning threshold; Update offers an improvement.
type bound interface {
	Load() float64
	Update(dist float64, pos int64) bool
}

// mappedBound wraps a bound whose positions live in a global space (a
// sharded collection's), translating this index's local positions on every
// update. Loads pass through untouched — the pruning threshold is the same
// number in every space.
type mappedBound struct {
	inner    bound
	toGlobal func(int64) int64
}

func (m mappedBound) Load() float64 { return m.inner.Load() }
func (m mappedBound) Update(dist float64, pos int64) bool {
	return m.inner.Update(dist, m.toGlobal(pos))
}

// workerBound wraps b with the run's position mapping when one is set.
func workerBound(b bound, toGlobal func(int64) int64) bound {
	if toGlobal == nil {
		return b
	}
	return mappedBound{inner: b, toGlobal: toGlobal}
}

// scanBlock is the number of leaf candidates a worker processes between
// refreshes of the shared pruning bound. Within a block the worker prunes
// against a locally cached copy — a stale (larger) threshold only admits
// extra candidates, never wrongly prunes — so the shared-atomic read
// leaves the per-candidate loop.
const scanBlock = 64

// leafScratch is the per-worker scratch for segment-major leaf scans: the
// whole leaf's lower-bound accumulators. Workers borrow one from
// scratchPool for the duration of a drain phase.
type leafScratch struct {
	lb []float64
}

// bounds returns the accumulator slice sized for an n-entry leaf.
func (s *leafScratch) bounds(n int) []float64 {
	if cap(s.lb) < n {
		s.lb = make([]float64, n)
	}
	return s.lb[:n]
}

// accumulate streams a leaf's symbol columns against the distance
// table's rows, leaving each entry's unscaled lower-bound sum in the
// scratch buffer — the one canonical column kernel shared by the
// Euclidean and DTW leaf scans. It fuses four segment columns per pass
// over the leaf, so each accumulator is loaded and stored once per four
// table lookups, then takes the last w mod 4 columns one at a time. Each
// entry still adds its cells one by one in ascending segment order
// (starting from +0, which leaves the first cell's bits unchanged), so
// the result (after scaling) is bitwise identical to the scalar
// per-entry kernels; keep that order if you touch this. Rows are
// 256-cell views and columns are re-sliced to the leaf length, so the
// loops compile without bounds checks.
func (s *leafScratch) accumulate(leaf *tree.Node, tab *isax.DistTable, w int) []float64 {
	lbs := s.bounds(leaf.LeafLen())
	clear(lbs)
	seg := 0
	for ; seg+4 <= w; seg += 4 {
		r0, r1, r2, r3 := tab.Row(seg), tab.Row(seg+1), tab.Row(seg+2), tab.Row(seg+3)
		c0 := leaf.Col(seg)[:len(lbs)]
		c1 := leaf.Col(seg + 1)[:len(lbs)]
		c2 := leaf.Col(seg + 2)[:len(lbs)]
		c3 := leaf.Col(seg + 3)[:len(lbs)]
		for e := range lbs {
			acc := lbs[e]
			acc += r0[c0[e]]
			acc += r1[c1[e]]
			acc += r2[c2[e]]
			acc += r3[c3[e]]
			lbs[e] = acc
		}
	}
	for ; seg < w; seg++ {
		r := tab.Row(seg)
		c := leaf.Col(seg)[:len(lbs)]
		for e := range lbs {
			lbs[e] += r[c[e]]
		}
	}
	return lbs
}

var scratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// QueryState holds the per-query scratch resources — PAA buffer, iSAX word
// buffer, the per-query distance table, and the priority-queue set — that
// a long-lived query engine reuses across queries instead of reallocating
// per search. A QueryState may back at most one SearchRun at a time; the
// zero value is ready to use.
type QueryState struct {
	paaBuf  []float64
	wordBuf []uint8
	table   *isax.DistTable
	queues  pqueue.Set[*tree.Node]
}

// NewQueryState returns an empty reusable scratch state.
func NewQueryState() *QueryState { return &QueryState{} }

// SearchRun is one in-flight query of any kind — 1-NN or k-NN, Euclidean
// or DTW, any quality mode: the shared per-query state (pruning bound,
// distance kernel, priority queues, root-claim counter) that any number of
// workers operate on. It decomposes Algorithm 6 into two phases so that
// workers can be either goroutines spawned for this query (Run) or units
// dispatched onto a persistent pool (internal/engine):
//
//	InsertPhase — claim blocks of root subtrees via Fetch&Add, prune, push
//	              non-prunable leaves into the queues (lines 1-6);
//	DrainPhase  — after every InsertPhase call has returned (the
//	              all-inserted barrier of line 7), drain queues until all
//	              are finished (lines 8-13).
//
// A ModeApprox run is answered by its init step alone (Settled reports
// true) and has no phases to execute. All phase methods are safe for
// concurrent use; pid distinguishes workers for queue-cursor and
// randomization purposes.
type SearchRun struct {
	ix          *Index
	query       []float32
	kern        kernel
	table       *isax.DistTable // per-query lower-bound table, built once in init
	pooledTable bool            // table borrowed from ix.tables (no QueryState)
	bnd         bound
	bsf         *stats.BSF // set for 1-NN runs
	top         *topK      // set for k-NN runs
	queues      *pqueue.Set[*tree.Node]
	rootCtr     atomic.Int64
	opt         SearchOptions
	qos         *QoS    // nil for plain exact runs
	escale      float64 // qos.Scale(): (1+ε)² lower-bound inflation, 1 = exact
	settled     bool    // approximate answer complete after init
}

// NewRun prepares one query: it validates the request, picks the distance
// kernel, computes the query's PAA and iSAX summaries, seeds the bound
// (opt.Seeds, then the approximate descent), and — unless the approximate
// descent already answers a ModeApprox request — builds the lower-bound
// table and readies the queue set. K > 1 runs keep a top-k set (K is
// clamped to the collection size plus seeds); 1-NN runs keep a BSF, the
// caller's opt.Shared when set. Counters and Breakdown default to the
// request's. st may be nil (fresh allocations) or a reused QueryState.
// The query must already be z-normalized if the indexed data is (the
// public API layer handles this).
func (ix *Index) NewRun(req Request, st *QueryState, opt SearchOptions) (*SearchRun, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ix.validateQuery(req.Query); err != nil {
		return nil, err
	}
	if opt.Counters == nil {
		opt.Counters = req.Counters
	}
	if opt.Breakdown == nil {
		opt.Breakdown = req.Breakdown
	}
	r := &SearchRun{ix: ix, query: req.Query, opt: opt.withDefaults(ix.Opts),
		qos: opt.QoS, escale: opt.QoS.Scale()}
	if req.K > 1 {
		// Seeds may reference series outside this index (a live index's
		// delta buffer), so the answer set can be larger than the
		// collection.
		k := min(req.K, ix.Data.Count()+len(opt.Seeds))
		r.top = newTopK(k)
		r.bnd = workerBound(r.top, opt.GlobalPos)
	} else {
		r.bsf = opt.Shared
		if r.bsf == nil {
			r.bsf = stats.NewBSF()
		}
		r.bnd = workerBound(r.bsf, opt.GlobalPos)
	}
	r.init(req, st)
	return r, nil
}

// globalBnd returns the bound in its global-position space (the BSF or
// top-k set itself, before local-position mapping) — the right target for
// seeds, whose positions are already global.
func (r *SearchRun) globalBnd() bound {
	if r.bsf != nil {
		return r.bsf
	}
	return r.top
}

// init computes the query summaries (into st's buffers when available),
// picks the kernel, seeds the bound, and runs the approximate descent. A
// ModeApprox run whose descent reached a non-empty leaf is settled there;
// every other run (including the approximate fallback for an empty leaf)
// builds its distance table and sizes the queue set.
func (r *SearchRun) init(req Request, st *QueryState) {
	bd := r.opt.Breakdown
	var tInit time.Time
	if bd.Enabled() {
		tInit = time.Now()
	}
	var paaBuf []float64
	var wordBuf []uint8
	if st != nil {
		paaBuf, wordBuf = st.paaBuf, st.wordBuf
	}
	w := r.ix.Schema.Segments
	qpaa := paa.Transform(r.query, w, paaBuf)
	qword := r.ix.Schema.WordFromPAA(qpaa, wordBuf)
	if st != nil {
		st.paaBuf, st.wordBuf = qpaa, qword
	}
	r.kern = newKernel(req, qpaa, w)
	for _, s := range r.opt.Seeds {
		r.globalBnd().Update(s.Dist, int64(s.Position))
	}
	if req.Mode == ModeApprox {
		// No distance table: the approximate answer only needs one in the
		// rare empty-leaf fallback, and its point is to be cheap.
		r.settled = r.descend(qword) > 0
	}
	if !r.settled {
		if st != nil {
			// The table's geometry is schema-bound; a pooled state may
			// have last served a different generation (engine Swap) or a
			// sibling shard, so recheck — same geometry means the buffer
			// is reusable.
			if st.table == nil || !st.table.Schema().SameGeometry(r.ix.Schema) {
				st.table = r.ix.Schema.NewDistTable()
			}
			r.table = st.table
			st.queues.Resize(r.opt.Queues, 64)
			r.queues = &st.queues
		} else {
			r.table, r.pooledTable = r.ix.getTable(), true
			r.queues = pqueue.NewSet[*tree.Node](r.opt.Queues, 64)
		}
		r.kern.build(r.table)
		if req.Mode != ModeApprox {
			r.descend(qword)
		}
	}
	if bd.Enabled() {
		bd.Add(stats.PhaseInit, time.Since(tInit))
	}
}

// Settled reports whether the run was answered by its init step (a
// ModeApprox run); its phases then have nothing to do.
func (r *SearchRun) Settled() bool { return r.settled }

// Run executes the query with opt.Workers goroutines spawned for this run
// only — the paper's original per-query execution mode (Algorithm 5/6) —
// then returns a pool-borrowed table. A panic on any worker fails the run
// with an error wrapping ErrQueryPanicked instead of the process. Call it
// at most once.
func (r *SearchRun) Run() error {
	defer r.releaseTable()
	if r.settled {
		return nil
	}
	var insertBarrier sync.WaitGroup // all-inserted barrier (Algorithm 6 line 7)
	insertBarrier.Add(r.opt.Workers)
	var wg sync.WaitGroup
	errs := make([]error, r.opt.Workers)
	for pid := 0; pid < r.opt.Workers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			inserted := false
			defer func() {
				if rec := recover(); rec != nil {
					if !inserted {
						insertBarrier.Done() // never strand the siblings at the barrier
					}
					errs[pid] = PanicError(rec)
				}
			}()
			r.InsertPhase(pid)
			inserted = true
			insertBarrier.Done()
			insertBarrier.Wait()
			r.DrainPhase(pid)
		}(pid)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PanicError converts a value recovered from a panicking query worker into
// an error wrapping ErrQueryPanicked (and the panic value itself when it is
// an error, so its chain stays matchable). The stack goes to slog — at Info
// level for the failpoint package's deliberate panics — so API consumers see
// a clean sentinel while operators keep the trace.
func PanicError(r any) error {
	level := slog.LevelError
	if fault.IsInjectedPanic(r) {
		level = slog.LevelInfo // chaos tests inject these on purpose
	}
	slog.Default().Log(context.Background(), level, "query worker panicked",
		"panic", fmt.Sprint(r),
		"stack", string(debug.Stack()))
	if perr, ok := r.(error); ok {
		return fmt.Errorf("%w: %w", ErrQueryPanicked, perr)
	}
	return fmt.Errorf("%w: %v", ErrQueryPanicked, r)
}

// Best returns the 1-NN answer. Call only after all workers finished.
func (r *SearchRun) Best() Match {
	d, pos := r.bsf.Best()
	return Match{Position: int(pos), Dist: d}
}

// Matches returns the answer sorted by ascending distance: the k-NN set,
// or the one 1-NN match (Position -1 when nothing was found). Call only
// after all workers finished.
func (r *SearchRun) Matches() []Match {
	if r.top != nil {
		return r.top.results()
	}
	return []Match{r.Best()}
}

// releaseTable returns a pool-borrowed table after the run completes.
// Runs backed by a QueryState own no pooled table.
func (r *SearchRun) releaseTable() {
	if r.pooledTable {
		r.ix.putTable(r.table)
		r.table, r.pooledTable = nil, false
	}
}

// InsertPhase is the tree-traversal half of Algorithm 6: claim blocks of
// root subtrees via Fetch&Add and push non-prunable leaves into the
// queues. Every participating worker must call it exactly once, and all
// calls must return before the first DrainPhase call starts.
//
// A block of consecutive active roots per claim, not a single root: with
// thousands of roots and dozens of workers, a per-root claim would make
// the shared counter's cache line the hottest spot of the tree pass. The
// block is len(activeRoots)/(8·Workers), at least 1, so every worker
// still expects about eight claims and a small tree keeps the one-root
// grain; the stop check stays per root. A root's bound comes from its
// slot number (rootBounds), so a pruned root's node is never loaded.
func (r *SearchRun) InsertPhase(pid int) {
	ctrs, bd := r.opt.Counters, r.opt.Breakdown
	cursor := pid % r.opt.Queues // round-robin insertion cursor (line 2)

	var tStart time.Time
	if bd.Enabled() {
		tStart = time.Now()
	}
	var insertTime time.Duration
	roots := r.ix.activeRoots
	block := max(1, len(roots)/(8*r.opt.Workers))
	rb := newRootBounds(r.table)
claim:
	for {
		end := int(r.rootCtr.Add(int64(block)))
		if end-block >= len(roots) {
			break
		}
		for _, slot := range roots[end-block : min(end, len(roots))] {
			if r.qos.ShouldStop() {
				// This root subtree (at least) goes unexplored.
				r.qos.MarkTruncated()
				break claim
			}
			ctrs.AddNodesVisited(1)
			ctrs.AddLowerBound(1)
			if r.prunes(rb.bound(slot)) {
				continue
			}
			if root := r.ix.Tree.Root(int(slot)); root.IsLeaf() {
				r.pushLeaf(root, &cursor, &insertTime, ctrs, bd)
			} else {
				r.traverse(root.Left, &cursor, &insertTime, ctrs, bd)
				r.traverse(root.Right, &cursor, &insertTime, ctrs, bd)
			}
		}
	}
	if bd.Enabled() {
		bd.Add(stats.PhaseTreePass, time.Since(tStart)-insertTime)
		bd.Add(stats.PhasePQInsert, insertTime)
	}
}

// rootBounds computes root subtrees' lower bounds from their slot
// numbers alone. A root's prefix has one bit per segment — segment i
// holds bit w-1-i of the slot — so its bound is a sum over the table's
// one-bit level. rootBounds keeps the running prefix sums of the last
// slot it bounded: a worker's slots ascend, consecutive ones share their
// high bits, and a slot costs only the adds from its first changed
// segment on. The sums start from +0 and run in ascending segment order,
// as in DistTable.MinDistPrefix, so every bound is bitwise identical to
// that of the root node's prefix.
type rootBounds struct {
	level []float64 // the table's one-bit level: cell (seg, bit) at 2·seg+bit
	scale float64
	w     int
	last  int32                         // slot the sums belong to; -1 before the first
	sums  [isax.MaxSegments + 1]float64 // sums[i]: the first i segments' cells
}

func newRootBounds(tab *isax.DistTable) rootBounds {
	return rootBounds{level: tab.Level(1), scale: tab.Scale(), w: tab.Schema().Segments, last: -1}
}

// bound returns the lower bound of the root subtree at slot.
func (b *rootBounds) bound(slot int32) float64 {
	w, level := b.w, b.level
	// The first segment whose bit changed; a last of -1 differs from
	// every slot in bit 31, so the first slot sums all segments.
	from := max(0, w-bits.Len32(uint32(slot^b.last)))
	sum := b.sums[from]
	for i := from; i < w; i++ {
		sum += level[2*i+int(slot>>(w-1-i))&1]
		b.sums[i+1] = sum
	}
	b.last = slot
	return sum * b.scale
}

// DrainPhase is the queue-processing half of Algorithm 6 (lines 8-13):
// drain queues until every queue is finished.
func (r *SearchRun) DrainPhase(pid int) {
	ctrs, bd := r.opt.Counters, r.opt.Breakdown
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)

	if r.opt.LocalQueues {
		// Ablation mode: drain only this worker's private queue; no
		// stealing. Workers whose queues drain early sit idle — the
		// load imbalance the paper rejected this design for.
		r.processQueue(r.queues.Queue(pid%r.opt.Queues), scratch, ctrs, bd)
		return
	}

	// The next queue to work on is chosen starting from a randomized
	// position — the load-balancing scheme the paper settled on ("workers
	// use randomization to choose the priority queues they will work on").
	rnd := uint64(pid)*0x9E3779B97F4A7C15 + 0x1234567
	q := pid % r.opt.Queues
	for {
		r.processQueue(r.queues.Queue(q), scratch, ctrs, bd)
		rnd = rnd*6364136223846793005 + 1442695040888963407 // LCG step
		q = r.queues.NextUnfinished(int(rnd>>33) % r.opt.Queues)
		if q < 0 {
			return
		}
	}
}

// Search answers an exact 1-NN Euclidean query (Algorithm 5) in the
// per-query spawn mode. The query must be z-normalized by the caller if
// the indexed data is (the public API layer handles this).
func (ix *Index) Search(query []float32, opt SearchOptions) (Match, error) {
	r, err := ix.NewRun(Request{Query: query}, nil, opt)
	if err != nil {
		return Match{}, err
	}
	if err := r.Run(); err != nil {
		return Match{}, err
	}
	return r.Best(), nil
}

// traverse is Algorithm 7 below the root level: prune subtrees whose
// prefix lower bound reaches the BSF and hand surviving leaves to
// pushLeaf. A leaf is bounded by its symbol box alone, which is never
// below its prefix bound.
func (r *SearchRun) traverse(node *tree.Node, cursor *int, insertTime *time.Duration,
	ctrs *stats.Counters, bd *stats.Breakdown) {

	ctrs.AddNodesVisited(1)
	if node.IsLeaf() {
		r.pushLeaf(node, cursor, insertTime, ctrs, bd)
		return
	}
	ctrs.AddLowerBound(1)
	if r.prunes(r.table.MinDistPrefix(node.Symbols, node.Bits)) {
		return
	}
	r.traverse(node.Left, cursor, insertTime, ctrs, bd)
	r.traverse(node.Right, cursor, insertTime, ctrs, bd)
}

// pushLeaf gates a leaf on its symbol box before it reaches the queues:
// the box bound (isax.DistTable.MinDistBox over the leaf's sealed Lo/Hi)
// is bitwise ≤ every entry's bound, so a leaf it prunes holds no entry
// the leaf scan would refine, and it becomes the leaf's queue priority.
func (r *SearchRun) pushLeaf(leaf *tree.Node, cursor *int, insertTime *time.Duration,
	ctrs *stats.Counters, bd *stats.Breakdown) {

	if leaf.LeafLen() == 0 {
		return
	}
	w := r.ix.Schema.Segments
	dist := r.table.MinDistBox(leaf.Lo[:w], leaf.Hi[:w])
	ctrs.AddLowerBound(1)
	if r.prunes(dist) {
		return
	}
	if bd.Enabled() {
		t0 := time.Now()
		r.queues.PushRoundRobin(cursor, dist, leaf)
		*insertTime += time.Since(t0)
	} else {
		r.queues.PushRoundRobin(cursor, dist, leaf)
	}
	ctrs.AddLeavesInserted(1)
}

// prunes reports whether lower bound dist prunes against the current
// pruning bound. A bound pruned only because of the (1+ε)² inflation is
// recorded as an answer-quality witness: what it bounds could beat the
// BSF, but nothing below dist.
func (r *SearchRun) prunes(dist float64) bool {
	limit := r.bnd.Load()
	if dist*r.escale < limit {
		return false
	}
	if dist < limit {
		r.qos.PruneEps(dist)
	}
	return true
}

// processQueue is Algorithm 8: repeatedly DeleteMin; once the popped bound
// is no better than the BSF (or the queue is empty), mark the queue
// finished and return.
func (r *SearchRun) processQueue(q *pqueue.Queue[*tree.Node], scratch *leafScratch,
	ctrs *stats.Counters, bd *stats.Breakdown) {

	for {
		if q.Finished() {
			return
		}
		if r.qos.ShouldStop() {
			// Deadline passed or request cancelled: abandon the queue at
			// leaf-scan granularity. The answer only loses exactness if
			// unscanned work actually remained.
			if _, ok := q.PopMin(); ok {
				r.qos.MarkTruncated()
			}
			q.MarkFinished()
			return
		}
		var t0 time.Time
		if bd.Enabled() {
			t0 = time.Now()
		}
		item, ok := q.PopMin()
		if bd.Enabled() {
			bd.Add(stats.PhasePQRemove, time.Since(t0))
		}
		if !ok {
			q.MarkFinished()
			return
		}
		if limit := r.bnd.Load(); item.Priority*r.escale >= limit {
			// Everything left in this min-queue is at least as far:
			// abandon the whole queue (Algorithm 8 lines 8-10). Under
			// ε-inflation the popped minimum bounds every remaining item,
			// so it is the single witness for the whole queue.
			if item.Priority < limit {
				r.qos.PruneEps(item.Priority)
			}
			ctrs.AddLeavesPruned(1)
			q.MarkFinished()
			return
		}
		if bd.Enabled() {
			t0 = time.Now()
		}
		r.scanLeaf(item.Value, scratch, ctrs)
		if bd.Enabled() {
			bd.Add(stats.PhaseDistCalc, time.Since(t0))
		}
	}
}

// scanLeaf is Algorithm 9 (CalculateRealDistance), restructured around
// the segment-major leaf layout: first the whole leaf's lower bounds are
// accumulated into the worker's scratch buffer by streaming each symbol
// column against its distance-table row (w tight table-load-and-add
// column loops — no per-entry word gather, no branches), then only the
// surviving candidates get the kernel's refinement. The kernel is
// dispatched once per leaf, so neither candidate loop branches on it.
func (r *SearchRun) scanLeaf(leaf *tree.Node, scratch *leafScratch, ctrs *stats.Counters) {
	// Worker-panic tests poison one leaf scan here to prove the engine
	// confines the blast radius to a single query. Disarmed, this is
	// one atomic load per leaf — invisible next to the scan itself.
	if err := fpScanLeaf.Hit(); err != nil {
		panic(err)
	}
	n := leaf.LeafLen()
	if n == 0 {
		return
	}
	lbs := scratch.accumulate(leaf, r.table, r.ix.Schema.Segments)
	var keogh, real int64
	if r.kern.dtw {
		keogh, real = r.refineLeafDTW(leaf, lbs)
	} else {
		real = r.refineLeafED(leaf, lbs)
	}
	ctrs.AddLowerBound(int64(n) + keogh)
	ctrs.AddRealDist(real)
}

// refineLeafED runs the early-abandoning squared Euclidean distance on
// every leaf entry whose scaled table bound survives the pruning bound,
// returning the number of distances computed. The pruning bound is cached
// locally and refreshed per scanBlock (and after every improvement)
// instead of loading the shared atomic twice per candidate.
func (r *SearchRun) refineLeafED(leaf *tree.Node, lbs []float64) (real int64) {
	scale, escale := r.table.Scale(), r.escale
	limit := r.bnd.Load()
	n := len(lbs)
	for base := 0; base < n; base += scanBlock {
		end := min(base+scanBlock, n)
		for e := base; e < end; e++ {
			if lb := lbs[e] * scale; lb*escale >= limit {
				if escale > 1 && lb < limit {
					// Candidate skipped only because of ε-inflation.
					r.qos.PruneEps(lb)
				}
				continue
			}
			pos := leaf.Positions[e]
			d := vector.SquaredEuclideanEarlyAbandon(r.ix.Data.At(int(pos)), r.query, limit)
			real++
			if d < limit {
				if r.bnd.Update(d, int64(pos)) {
					r.opt.Counters.AddBSFUpdate()
				}
				limit = r.bnd.Load()
			}
		}
		if end < n {
			limit = r.bnd.Load()
		}
	}
	return real
}

// refineLeafDTW is refineLeafED's DTW form: surviving entries cascade
// LB_Keogh on the raw candidate, then the early-abandoning banded DTW. It
// returns the LB_Keogh and DTW computation counts.
func (r *SearchRun) refineLeafDTW(leaf *tree.Node, lbs []float64) (keogh, real int64) {
	k := &r.kern
	scale, escale := r.table.Scale(), r.escale
	limit := r.bnd.Load()
	n := len(lbs)
	for base := 0; base < n; base += scanBlock {
		end := min(base+scanBlock, n)
		for e := base; e < end; e++ {
			if lb := lbs[e] * scale; lb*escale >= limit {
				if escale > 1 && lb < limit {
					r.qos.PruneEps(lb)
				}
				continue
			}
			pos := leaf.Positions[e]
			cand := r.ix.Data.At(int(pos))
			keogh++
			if dtw.LBKeogh(cand, k.lower, k.upper, limit) >= limit {
				continue
			}
			d := dtw.Distance(r.query, cand, k.window, limit)
			real++
			if d < limit {
				if r.bnd.Update(d, int64(pos)) {
					r.opt.Counters.AddBSFUpdate()
				}
				limit = r.bnd.Load()
			}
		}
		if end < n {
			limit = r.bnd.Load()
		}
	}
	return keogh, real
}

// descend is the approximate search that seeds the bound (Figure 4(a)):
// descend to the leaf matching the query's iSAX word and refine every
// series in it with the run's kernel. It returns the leaf's size. The
// bound is loaded once per candidate and refreshed only after an update.
// Runs without a table yet (ModeApprox) choose the fallback root with the
// bitwise-identical scalar bound.
func (r *SearchRun) descend(qword []uint8) int {
	ix, ctrs := r.ix, r.opt.Counters
	root := ix.Tree.Root(ix.Schema.RootIndex(qword))
	if root == nil {
		// The query's own subtree is empty: fall back to the root child
		// with the smallest lower bound.
		best := math.Inf(1)
		for _, slot := range ix.activeRoots {
			n := ix.Tree.Root(int(slot))
			var d float64
			if r.table != nil {
				d = r.table.MinDistPrefix(n.Symbols, n.Bits)
			} else {
				d = r.kern.minDistPrefix(ix.Schema, n)
			}
			ctrs.AddLowerBound(1)
			if d < best {
				best = d
				root = n
			}
		}
	}
	if root == nil {
		return 0 // empty tree; validateQuery prevents this
	}
	leaf := ix.Tree.DescendToLeaf(root, qword)
	limit := r.bnd.Load()
	for _, pos := range leaf.Positions {
		d := r.kern.refine(ix.Data.At(int(pos)), r.query, limit, ctrs)
		if d < limit {
			if r.bnd.Update(d, int64(pos)) {
				ctrs.AddBSFUpdate()
			}
			limit = r.bnd.Load()
		}
	}
	return leaf.LeafLen()
}
