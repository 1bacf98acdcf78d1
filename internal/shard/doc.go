// Package shard partitions a series collection across S independent MESSI
// indexes (ParIS+-style: one index structure per slice of the data) and
// answers queries by fanning out across the shards.
//
// Series are routed round-robin: global position p lives in shard p%S at
// local position p/S, so the local↔global mapping is pure arithmetic and
// stays stable as the collection grows — a live index appending series
// keeps the same routing forever, and a generational rebuild touches each
// shard's O(n/S) slice instead of one O(n) tree.
//
// Index.Do answers every request kind in the paper's per-query spawn
// mode: one core.SearchRun per non-empty shard, run concurrently. 1-NN
// runs thread one shared atomic best-so-far through every shard's search
// (core.SearchOptions.Shared/GlobalPos): a tight bound found in shard 0
// immediately prunes the tree traversals and leaf scans of shards 1..S-1,
// so the fan-out does the same total pruning work as one big tree. k-NN
// answers are merged from the per-shard top-k sets through a priority
// queue (MergeKNN). Answers are identical to a single index built over
// the whole collection. internal/engine fans the same runs out as pool
// units instead.
//
// # Concurrency invariants
//
//   - A built Index is immutable; Do is safe for unlimited concurrent
//     use, like the core indexes it wraps. A panic in any shard's search
//     fails only that query, with an error wrapping
//     core.ErrQueryPanicked.
//   - The shared best-so-far is the only cross-shard communication during
//     a query. Its updates are lock-free and monotone decreasing
//     (stats.BSF): shards racing to publish improvements can only
//     tighten pruning, never loosen it, so fan-out answers are
//     deterministic even though the interleaving is not.
//   - Shard construction is concurrent (one builder per shard); Build
//     returns only after every shard finishes, so no query observes a
//     partially built shard.
package shard
