package core

import (
	"fmt"

	"repro/internal/isax"
	"repro/internal/series"
	"repro/internal/tree"
)

// SnapshotState is the persistent state of a built index: everything
// needed to reconstruct it without re-running the construction pipeline.
// The collection and flattened tree share storage with the live index, so
// a SnapshotState is only valid while the index it came from is unchanged
// (an Index is immutable after Build, so in practice: forever).
type SnapshotState struct {
	Data *series.Collection
	Tree *tree.Flat
	Opts Options
}

// Snapshot captures the index's persistent state for serialization.
func (ix *Index) Snapshot() SnapshotState {
	return SnapshotState{Data: ix.Data, Tree: ix.Tree.Flatten(), Opts: ix.Opts}
}

// Restore reconstructs an Index from a snapshot taken by Snapshot (or
// decoded from disk), validating that the tree is structurally sound and
// consistent with the collection. Restoring skips the whole construction
// pipeline: no PAA transforms, no quantization, no splits — the dominant
// costs of Build.
func Restore(st SnapshotState) (*Index, error) {
	if st.Data == nil || st.Data.Count() == 0 {
		return nil, fmt.Errorf("core: cannot restore an index over an empty collection")
	}
	opts := st.Opts.withDefaults()
	schema, err := isax.NewSchema(st.Data.Length, opts.Segments, opts.CardBits)
	if err != nil {
		return nil, err
	}
	tr, err := tree.Unflatten(schema, opts.LeafCapacity, st.Tree)
	if err != nil {
		return nil, err
	}
	count := st.Data.Count()
	if entries := st.Tree.Entries(); entries != count {
		return nil, fmt.Errorf("core: snapshot tree stores %d entries for %d series", entries, count)
	}
	for i := range st.Tree.Nodes {
		for _, pos := range st.Tree.Nodes[i].Positions {
			if pos < 0 || int(pos) >= count {
				return nil, fmt.Errorf("core: snapshot leaf position %d out of range [0,%d)", pos, count)
			}
		}
	}
	ix := &Index{Data: st.Data, Schema: schema, Tree: tr, Opts: opts}
	ix.seal()
	return ix, nil
}
