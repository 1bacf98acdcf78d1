package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/tree"
)

// BuildTiming records the two construction phases separately, matching the
// stacked bars of Figure 9 ("Calculate iSAX Representations" and "Tree
// Index Construction").
type BuildTiming struct {
	Summarize time.Duration // phase 1: iSAX summary computation into buffers
	TreeBuild time.Duration // phase 2: subtree construction from buffers
}

// Total returns the end-to-end construction time.
func (bt BuildTiming) Total() time.Duration { return bt.Summarize + bt.TreeBuild }

// Build constructs a MESSI index over the collection using the paper's
// two-phase parallel pipeline (Algorithms 1-4). The collection must be
// non-empty and its series length a multiple of Options.Segments. The
// collection is retained by the index (not copied) and must not be
// modified afterwards.
func Build(data *series.Collection, opts Options) (*Index, error) {
	return BuildTimed(data, opts, nil)
}

// BuildTimed is Build with optional per-phase timing (timing may be nil).
func BuildTimed(data *series.Collection, opts Options, timing *BuildTiming) (*Index, error) {
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

	nw := opts.IndexWorkers
	bufs := buffer.NewBuffers(schema.RootFanout(), nw, schema.Segments, opts.InitBufferCap)

	// Phase 1 — CalculateiSAXSummaries (Algorithm 3): workers claim
	// fixed-size chunks of the raw array via Fetch&Inc and append each
	// series' word to their own part of the destination subtree's buffer.
	//
	// The paper runs both phases in the same worker threads separated by
	// a barrier (Algorithm 2); two goroutine waves joined by WaitGroups
	// have identical synchronization semantics and let us time the
	// phases separately.
	start := time.Now()
	var chunkCtr atomic.Int64
	var wg sync.WaitGroup
	bad := make([]int, nw) // per worker: a non-finite series' position, or -1
	for pid := 0; pid < nw; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			bad[pid] = summarizeWorker(ix, bufs, &chunkCtr, pid)
		}(pid)
	}
	wg.Wait()
	for _, j := range bad {
		if j >= 0 {
			return nil, fmt.Errorf("%w: series %d", ErrNonFinite, j)
		}
	}
	summarizeDone := time.Now()

	// Phase 2 — TreeConstruction (Algorithm 4): workers claim whole
	// iSAX buffers (root subtrees) via Fetch&Inc; each subtree is built
	// by exactly one worker, so inserts need no synchronization.
	var bufCtr atomic.Int64
	for pid := 0; pid < nw; pid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			treeWorker(ix, bufs, &bufCtr)
		}()
	}
	wg.Wait()

	if timing != nil {
		timing.Summarize = summarizeDone.Sub(start)
		timing.TreeBuild = time.Since(summarizeDone)
	}

	ix.seal()
	return ix, nil
}

// summarizeWorker is one phase-1 worker: it converts raw series to iSAX
// words chunk by chunk. It stops at the first series holding a NaN or ±Inf
// value and returns its position (-1 when every series it saw is finite).
// A series is finite exactly when all its segment means are — the sums
// run in float64, where float32 values cannot overflow — so the check
// reads the PAA the word needs anyway instead of the raw values.
func summarizeWorker(ix *Index, bufs *buffer.Buffers, chunkCtr *atomic.Int64, pid int) int {
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
			return -1
		}
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		for j := lo; j < hi; j++ {
			paa.Transform(data.At(j), schema.Segments, paaBuf)
			if !finite(paaBuf) {
				return j
			}
			schema.WordFromPAA(paaBuf, word)
			l := schema.RootIndex(word)
			bufs.Append(l, pid, word, int32(j))
		}
	}
}

// treeWorker is one phase-2 worker: it drains whole buffers into their
// subtrees and seals each subtree it completes, so sealing runs in
// parallel too.
func treeWorker(ix *Index, bufs *buffer.Buffers, bufCtr *atomic.Int64) {
	fanout := ix.Schema.RootFanout()
	for {
		l := int(bufCtr.Add(1) - 1)
		if l >= fanout {
			return
		}
		if bufs.BufferLen(l) == 0 {
			continue
		}
		root := ix.Tree.EnsureRoot(l)
		bufs.ForEach(l, func(word []uint8, pos int32) {
			ix.Tree.Insert(root, word, pos)
		})
		ix.Tree.SealRoot(l)
	}
}

// finite reports whether every value in v is finite. Summing first keeps
// it to one test: a NaN or ±Inf term leaves the sum non-finite (+Inf and
// −Inf together give NaN), and finite segment means cannot overflow.
func finite(v []float64) bool {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return !math.IsNaN(sum) && !math.IsInf(sum, 0)
}
