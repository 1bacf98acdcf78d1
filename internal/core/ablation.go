package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/tree"
)

// This file implements the design alternatives the paper evaluated and
// rejected, so the ablation benchmarks can quantify the choices:
//
//   - BuildDirect: "we also tried a design of MESSI with no iSAX buffers,
//     but this led to slower performance (due to the worse cache
//     locality)" (§III-A). Workers insert straight into the tree, which
//     additionally requires one lock per root subtree (footnote 4:
//     parallelizing within a subtree would need split synchronization —
//     locking the whole subtree is the coarse-grained version of that).
//   - BuildLockedBuffers: footnote 3 — "We have also tried an alternative
//     technique where each buffer was protected by a lock and many threads
//     were accessing each buffer. However, this resulted in worse
//     performance due to the encountered contention in accessing the iSAX
//     buffers." Identical to Build except that the per-worker buffer
//     parts are replaced by one locked buffer per subtree; combined with
//     Build and the ParIS baseline it isolates the lock cost from the
//     chunk-assignment policy.
//   - LocalQueues search mode: "using a local queue per thread results in
//     severe load imbalance, since, depending on the workload, the size of
//     the different queues may vary significantly" (§III-B). Workers drain
//     only their own queue and never steal.
//
// None of these is used by the production Build/Search paths.

// BuildDirect constructs the index without iSAX buffers: phase 1 and
// phase 2 are fused, and each insertion locks its destination root
// subtree. Results are identical to Build (same entries per leaf prefix);
// only the construction schedule differs.
func BuildDirect(data *series.Collection, opts Options) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("core: cannot build an index over an empty collection")
	}
	opts = opts.withDefaults()
	schema, err := isax.NewSchema(data.Length, opts.Segments, opts.CardBits)
	if err != nil {
		return nil, err
	}
	tr, err := tree.New(schema, opts.LeafCapacity)
	if err != nil {
		return nil, err
	}
	ix := &Index{Data: data, Schema: schema, Tree: tr, Opts: opts}

	locks := make([]sync.Mutex, schema.RootFanout())
	var chunkCtr atomic.Int64
	var wg sync.WaitGroup
	for pid := 0; pid < opts.IndexWorkers; pid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			directWorker(ix, locks, &chunkCtr)
		}()
	}
	wg.Wait()

	ix.seal()
	return ix, nil
}

// BuildLockedBuffers is the footnote-3 variant: MESSI's chunked phase 1
// and subtree-partitioned phase 2, but with one shared, lock-protected
// buffer per root subtree instead of per-worker parts. Entries carry
// their words in a side array (like ParIS's SAX array) because a shared
// buffer cannot be structure-of-arrays per worker.
func BuildLockedBuffers(data *series.Collection, opts Options) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("core: cannot build an index over an empty collection")
	}
	opts = opts.withDefaults()
	schema, err := isax.NewSchema(data.Length, opts.Segments, opts.CardBits)
	if err != nil {
		return nil, err
	}
	tr, err := tree.New(schema, opts.LeafCapacity)
	if err != nil {
		return nil, err
	}
	ix := &Index{Data: data, Schema: schema, Tree: tr, Opts: opts}

	w := schema.Segments
	sax := make([]uint8, data.Count()*w)
	recv := buffer.NewLockedBuffers(schema.RootFanout())

	var chunkCtr atomic.Int64
	var wg sync.WaitGroup
	for pid := 0; pid < opts.IndexWorkers; pid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := opts.ChunkSize
			count := data.Count()
			paaBuf := make([]float64, w)
			for {
				b := int(chunkCtr.Add(1) - 1)
				lo := b * chunk
				if lo >= count {
					return
				}
				hi := lo + chunk
				if hi > count {
					hi = count
				}
				for j := lo; j < hi; j++ {
					paa.Transform(data.At(j), w, paaBuf)
					word := sax[j*w : (j+1)*w]
					schema.WordFromPAA(paaBuf, word)
					recv.Append(schema.RootIndex(word), int32(j))
				}
			}
		}()
	}
	wg.Wait()

	var bufCtr atomic.Int64
	for pid := 0; pid < opts.IndexWorkers; pid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fanout := schema.RootFanout()
			for {
				l := int(bufCtr.Add(1) - 1)
				if l >= fanout {
					return
				}
				positions := recv.Positions(l)
				if len(positions) == 0 {
					continue
				}
				root := tr.EnsureRoot(l)
				for _, pos := range positions {
					tr.Insert(root, sax[int(pos)*w:(int(pos)+1)*w], pos)
				}
				tr.SealRoot(l)
			}
		}()
	}
	wg.Wait()

	ix.seal()
	return ix, nil
}

func directWorker(ix *Index, locks []sync.Mutex, chunkCtr *atomic.Int64) {
	data := ix.Data
	schema := ix.Schema
	chunk := ix.Opts.ChunkSize
	count := data.Count()
	paaBuf := make([]float64, schema.Segments)
	word := make([]uint8, schema.Segments)
	for {
		b := int(chunkCtr.Add(1) - 1)
		lo := b * chunk
		if lo >= count {
			return
		}
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		for j := lo; j < hi; j++ {
			paa.Transform(data.At(j), schema.Segments, paaBuf)
			schema.WordFromPAA(paaBuf, word)
			l := schema.RootIndex(word)
			locks[l].Lock()
			root := ix.Tree.EnsureRoot(l)
			ix.Tree.Insert(root, word, int32(j))
			locks[l].Unlock()
		}
	}
}
