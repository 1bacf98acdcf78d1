package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/paa"
	"repro/internal/tree"
	"repro/internal/vector"
)

// naive1NN is a reference exact search built entirely on the pre-table
// scalar kernels and per-entry word gathers: walk every leaf, prune each
// entry with MinDistPAAWordNaive against the running best, early-abandon
// the real distance. The vectorized engine must return identical answers.
func naive1NN(ix *Index, query []float32) Match {
	w := ix.Schema.Segments
	qpaa := paa.Transform(query, w, nil)
	wordBuf := make([]uint8, w)
	best := Match{Position: -1, Dist: math.Inf(1)}
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		for i := 0; i < n.LeafLen(); i++ {
			if ix.Schema.MinDistPAAWordNaive(qpaa, n.Word(i, w, wordBuf)) >= best.Dist {
				continue
			}
			pos := n.Positions[i]
			d := vector.SquaredEuclideanEarlyAbandon(ix.Data.At(int(pos)), query, best.Dist)
			if d < best.Dist {
				best = Match{Position: int(pos), Dist: d}
			}
		}
	})
	return best
}

// naiveKNN is naive1NN's k-NN counterpart (insertion into a sorted
// slice; fine at test scale).
func naiveKNN(ix *Index, query []float32, k int) []Match {
	w := ix.Schema.Segments
	qpaa := paa.Transform(query, w, nil)
	wordBuf := make([]uint8, w)
	var top []Match
	limit := func() float64 {
		if len(top) < k {
			return math.Inf(1)
		}
		return top[len(top)-1].Dist
	}
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		for i := 0; i < n.LeafLen(); i++ {
			if ix.Schema.MinDistPAAWordNaive(qpaa, n.Word(i, w, wordBuf)) >= limit() {
				continue
			}
			pos := n.Positions[i]
			d := vector.SquaredEuclideanEarlyAbandon(ix.Data.At(int(pos)), query, limit())
			if d >= limit() {
				continue
			}
			j := len(top)
			top = append(top, Match{})
			for j > 0 && (top[j-1].Dist > d) {
				top[j] = top[j-1]
				j--
			}
			top[j] = Match{Position: int(pos), Dist: d}
			if len(top) > k {
				top = top[:k]
			}
		}
	})
	return top
}

// naiveDTW mirrors the DTW cascade with the scalar envelope kernel.
func naiveDTW(ix *Index, query []float32, window int) Match {
	w := ix.Schema.Segments
	u, l := dtw.Envelope(query, window)
	uMax := paa.SegmentMax(u, w, nil)
	lMin := paa.SegmentMin(l, w, nil)
	wordBuf := make([]uint8, w)
	best := Match{Position: -1, Dist: math.Inf(1)}
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		for i := 0; i < n.LeafLen(); i++ {
			if ix.Schema.MinDistEnvelopeWord(uMax, lMin, n.Word(i, w, wordBuf)) >= best.Dist {
				continue
			}
			pos := n.Positions[i]
			candidate := ix.Data.At(int(pos))
			if dtw.LBKeogh(candidate, l, u, best.Dist) >= best.Dist {
				continue
			}
			d := dtw.Distance(query, candidate, window, best.Dist)
			if d < best.Dist {
				best = Match{Position: int(pos), Dist: d}
			}
		}
	})
	return best
}

// TestVectorizedSearchMatchesNaiveKernels is the tentpole's acceptance
// test: the table/SoA read path returns identical 1-NN, k-NN, and DTW
// answers to reference searches running the original scalar kernels.
func TestVectorizedSearchMatchesNaiveKernels(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, err := dataset.Generate(dataset.RandomWalk, 30, 64, 23)
	if err != nil {
		t.Fatal(err)
	}
	const k, window = 5, 4
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)

		got, err := ix.Search(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := naive1NN(ix, q); got != want {
			t.Fatalf("query %d: 1-NN %+v, naive kernels say %+v", qi, got, want)
		}

		gotK, err := run(ix, Request{Query: q, K: k}, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantK := naiveKNN(ix, q, k)
		if len(gotK) != len(wantK) {
			t.Fatalf("query %d: k-NN returned %d matches, naive %d", qi, len(gotK), len(wantK))
		}
		for i := range gotK {
			if gotK[i] != wantK[i] {
				t.Fatalf("query %d: k-NN[%d] = %+v, naive %+v", qi, i, gotK[i], wantK[i])
			}
		}

		gotD, err := runDTW(ix, q, window, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveDTW(ix, q, window); gotD != want {
			t.Fatalf("query %d: DTW %+v, naive kernels say %+v", qi, gotD, want)
		}
	}
}

// TestScanLeafBoundsMatchScalarKernel checks, on real tree leaves, that
// the segment-major column accumulation produces bitwise-identical lower
// bounds to the per-entry scalar kernel.
func TestScanLeafBoundsMatchScalarKernel(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 64, smallOpts())
	queries, err := dataset.Generate(dataset.RandomWalk, 5, 64, 31)
	if err != nil {
		t.Fatal(err)
	}
	w := ix.Schema.Segments
	tab := ix.Schema.NewDistTable()
	var scratch leafScratch
	wordBuf := make([]uint8, w)
	for qi := 0; qi < queries.Count(); qi++ {
		qpaa := paa.Transform(queries.At(qi), w, nil)
		tab.BuildPAA(qpaa)
		ix.Tree.ForEachLeaf(func(leaf *tree.Node) {
			n := leaf.LeafLen()
			if n == 0 {
				return
			}
			lbs := scratch.accumulate(leaf, tab, w)
			for e := 0; e < n; e++ {
				got := lbs[e] * tab.Scale()
				want := ix.Schema.MinDistPAAWord(qpaa, leaf.Word(e, w, wordBuf))
				if got != want {
					t.Fatalf("query %d entry %d: column bound %v, scalar %v", qi, e, got, want)
				}
			}
		})
	}
}

// BenchmarkLeafScan measures the lower-bound stage of the leaf scan over
// a realistically filled tree: the pre-PR shape (entry-major words, one
// scalar kernel call per entry) against the segment-major column loops
// over the per-query distance table. Real-distance work is excluded so
// the numbers isolate the kernel the PR vectorized.
func BenchmarkLeafScan(b *testing.B) {
	data, err := dataset.Generate(dataset.RandomWalk, 40000, 256, 11)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(data, Options{IndexWorkers: 8})
	if err != nil {
		b.Fatal(err)
	}
	w := ix.Schema.Segments
	var leaves []*tree.Node
	var entries int
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		if n.LeafLen() > 0 {
			leaves = append(leaves, n)
			entries += n.LeafLen()
		}
	})
	// Entry-major copies of every leaf's words: the pre-PR layout.
	aos := make([][]uint8, len(leaves))
	for li, leaf := range leaves {
		flat := make([]uint8, leaf.LeafLen()*w)
		for i := 0; i < leaf.LeafLen(); i++ {
			leaf.Word(i, w, flat[i*w:(i+1)*w])
		}
		aos[li] = flat
	}
	qpaa := paa.Transform(data.At(0), w, nil)
	tab := ix.Schema.NewDistTable()
	tab.BuildPAA(qpaa)
	var scratch leafScratch
	var sink float64
	b.Logf("%d leaves, %d entries", len(leaves), entries)

	b.Run("entry-major-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			min := math.Inf(1)
			for li := range leaves {
				flat := aos[li]
				for e := 0; e < len(flat)/w; e++ {
					if lb := ix.Schema.MinDistPAAWord(qpaa, flat[e*w:(e+1)*w]); lb < min {
						min = lb
					}
				}
			}
			sink += min
		}
	})
	b.Run("segment-major-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			min := math.Inf(1)
			for _, leaf := range leaves {
				lbs := scratch.accumulate(leaf, tab, w)
				scale := tab.Scale()
				for _, lb := range lbs {
					if v := lb * scale; v < min {
						min = v
					}
				}
			}
			sink += min
		}
	})
	_ = sink
}
