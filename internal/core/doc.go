// Package core implements the paper's primary contribution: the MESSI
// in-memory data series index. It contains the parallel index-construction
// pipeline of §III-A (Algorithms 1-4) and the parallel exact query
// answering of §III-B (Algorithms 5-9), plus the DTW mode (Figure 19) and
// a k-NN extension of the same machinery.
//
// # One query path
//
// Every query — Euclidean or DTW, 1-NN or k-NN, any quality mode — is one
// SearchRun, built by Index.NewRun from a Request. The run picks its
// distance kernel once: the lower-bound table comes from the query's PAA
// (Euclidean) or from its LB_Keogh envelope (DTW, per §IV: "no changes
// … in the index structure"), and surviving candidates are refined with
// the squared Euclidean distance or with LB_Keogh then the banded DTW.
// The approximate descent, the tree traversal, the queue drain and the
// leaf scan are shared. A ModeApprox run stops after the approximate
// descent. SearchRun.Run executes a run on goroutines spawned for it (the
// paper's per-query mode, behind Index.Search and shard.Index.Do);
// internal/engine executes the same InsertPhase/DrainPhase as pool units.
//
// # Keeping a query's workers out of each other's way
//
// The tree pass claims work from one counter per run. A Fetch&Add claims
// a block of consecutive active roots, not one root: the benchmark index
// (1M random walks) has about 28,000 active roots, and one contended
// Fetch&Inc per root cost more CPU than the pruning they fed. The block
// is len(activeRoots)/(8·Workers), at least 1, derived from the input so
// no option is needed: each worker still expects about eight claims, so
// the claims balance as before, and a tree with a few hundred roots keeps
// the one-root grain. Build phase 1 claims 20,000-series chunks the same
// way. Deadline and cancellation checks stay per root, inside a block.
//
// Leaf lower bounds come from one kernel, leafScratch.accumulate, shared
// by the Euclidean and DTW scans: four segment columns per pass over the
// leaf's accumulators, then the last w mod 4 columns one at a time, with
// 256-cell table-row views (isax.DistTable.Row) and leaf-length columns so
// the loops carry no bounds checks. Every entry still adds its cells one
// at a time in ascending segment order from +0, so each bound is bitwise
// identical to the scalar kernels (isax.Schema.MinDistPAAWord and
// MinDistEnvelopeWord); TestScanLeafBoundsMatchScalarKernel and
// FuzzLeafBoundsEquivalence pin that order.
//
// # Sealing
//
// Every constructor of an Index — Build, Restore, BuildDirect and
// BuildLockedBuffers — ends with one seal step (Index.seal). Build runs
// it per root subtree inside its tree workers, so it runs in parallel;
// the others seal every root at the end. Sealing a root subtree
// (tree.Tree.SealRoot) packs each of its leaves — Stride == LeafLen and
// Positions at exact capacity, freeing the spare room the growing
// columns had; storage already packed, like a mapped snapshot's, is kept
// as is — and records the leaf's symbol box, the per-segment min and max
// of its entries' full-cardinality symbols (tree.Node.Lo/Hi). The box is
// derived, not serialized, so the snapshot format does not change.
//
// The tree pass uses two bounds that need no more than that. A root's
// bound comes from its slot number: one bit per segment, summed over the
// table's one-bit level with running sums shared by consecutive slots
// (rootBounds), bitwise equal to DistTable.MinDistPrefix, so a pruned
// root's node is never loaded. A leaf is gated on its box before it is
// queued (SearchRun.pushLeaf): every table row, PAA or DTW envelope, is
// unimodal — it falls to the zero cells where a symbol's region meets
// the query's range and rises after — so a row's smallest cell inside
// [lo, hi] is its valley clamped into the box (DistTable.MinDistBox).
// Summed in ascending segment order from +0, the box bound is bitwise
// equal to the smallest entry bound the box admits, hence bitwise ≤
// every entry's accumulate bound: a leaf it prunes holds no entry the
// leaf scan would refine against the same pruning bound. Exact answers
// therefore do not change, a leaf pruned only by the ε inflation leaves
// its box bound as the witness (as any pruned node does), and the box
// bound is the leaf's queue priority. TestRootSlotBoundMatchesPrefix,
// FuzzLeafBoxBound and TestLeavesInsertedCountsBoxGate pin these
// claims.
//
// # Contracts
//
// An *Index is immutable once Build returns: every search method is safe
// for unlimited concurrent use, and nothing in the package mutates the
// tree, the series block, or the iSAX summaries after construction. All
// distances handled internally are squared Euclidean (or squared
// LB_Keogh/DTW); public Match values carry the square root.
//
// Request/Result and the QoS type extend the paper's exact search into a
// quality spectrum: exact, approximate (leaf-only), epsilon (prune at
// lb·(1+ε)², answer proven within 1+ε of optimal), and deadline (stop at
// a time budget, report the proven bound). Request.Validate is the one
// validation site; its failures wrap the sentinel errors ErrBadK,
// ErrBadWindow, ErrBadEpsilon and ErrNonFinite (the index adds
// ErrWrongLength), so callers can map them to API responses without string
// matching. Build rejects a series holding NaN or ±Inf with ErrNonFinite
// too, found from the PAA it computes anyway. A panic on a search worker fails only its query, with an error
// wrapping ErrQueryPanicked.
//
// # Concurrency invariants
//
//   - The best-so-far bound (stats.BSF) is updated lock-free: the (dist,
//     pos) pair is published as an immutable record behind an atomic
//     pointer, with a separate monotone bits cache for cheap Load. A
//     stale Load only admits extra candidates — it never wrongly prunes —
//     so readers may lag writers safely.
//   - Query workers share pqueue.Set priority queues; a worker that finds
//     a queue empty steals from the others before exiting (Algorithm 6's
//     termination), so no leaf is dropped when workers finish unevenly.
//   - SearchOptions.Shared threads an external BSF through the search so
//     several index shards (or the delta scan of a live index) tighten
//     one another's pruning; SearchOptions.GlobalPos remaps local leaf
//     positions into the caller's global position space before they are
//     published to the shared bound.
//   - Per-query scratch (PAA buffer, iSAX word, distance table, queues)
//     is confined to the query that allocated it; the sync.Pool reuse in
//     internal/engine relies on queries never retaining scratch past
//     return.
//   - Operation counters (stats.Counters) are atomic adds; a nil counter
//     set disables collection at zero cost.
package core
