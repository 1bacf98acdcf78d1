package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/isax"
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
// the fused column kernel produces bitwise-identical lower bounds to the
// per-entry scalar kernels, for Euclidean (PAA) and DTW (envelope)
// tables alike. The segment counts cover every w mod 4 remainder the
// kernel's four-column passes leave, and CardBits below 8 exercises the
// padded 256-cell row views.
func TestScanLeafBoundsMatchScalarKernel(t *testing.T) {
	const length, window = 240, 12 // 240 is a multiple of every segment count
	queries, err := dataset.Generate(dataset.RandomWalk, 3, length, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 4, 5, 6, 8, 16} {
		for _, cardBits := range []int{1, 4, 8} {
			opts := smallOpts()
			opts.Segments, opts.CardBits = w, cardBits
			ix := buildTestIndex(t, dataset.RandomWalk, 1500, length, opts)
			s := ix.Schema
			tab := s.NewDistTable()
			var scratch leafScratch
			wordBuf := make([]uint8, w)
			// check compares every leaf's column bounds with scalar(word).
			check := func(kind string, qi int, scalar func(word []uint8) float64) {
				ix.Tree.ForEachLeaf(func(leaf *tree.Node) {
					lbs := scratch.accumulate(leaf, tab, w)
					for e := range lbs {
						got := lbs[e] * tab.Scale()
						if want := scalar(leaf.Word(e, w, wordBuf)); got != want {
							t.Fatalf("w=%d cardBits=%d %s query %d entry %d: column bound %v, scalar %v",
								w, cardBits, kind, qi, e, got, want)
						}
					}
				})
			}
			for qi := 0; qi < queries.Count(); qi++ {
				q := queries.At(qi)
				qpaa := paa.Transform(q, w, nil)
				tab.BuildPAA(qpaa)
				check("euclidean", qi, func(word []uint8) float64 { return s.MinDistPAAWord(qpaa, word) })

				u, l := dtw.Envelope(q, window)
				uMax, lMin := paa.SegmentMax(u, w, nil), paa.SegmentMin(l, w, nil)
				tab.BuildEnvelope(uMax, lMin)
				check("dtw", qi, func(word []uint8) float64 { return s.MinDistEnvelopeWord(uMax, lMin, word) })
			}
		}
	}
}

// FuzzLeafBoundsEquivalence drives the fused column kernel with random
// leaves (any segment count, cardinality, entry count and column stride)
// and random query summaries, Euclidean or DTW, and requires every bound
// to equal the scalar kernel's bit for bit. Each leaf is scanned twice
// with the same scratch, so a bound that leaked from the previous scan
// would show.
func FuzzLeafBoundsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(8), uint16(300), float64(1), false)
	f.Add(int64(2), uint8(5), uint8(4), uint16(7), float64(3), true)
	f.Add(int64(3), uint8(3), uint8(1), uint16(1), float64(0.5), false)
	f.Add(int64(4), uint8(1), uint8(8), uint16(64), float64(1e150), true)
	f.Fuzz(func(t *testing.T, seed int64, segments, cardBits uint8, entries uint16, spread float64, envelope bool) {
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			t.Skip()
		}
		w := int(segments)%isax.MaxSegments + 1
		cb := int(cardBits)%isax.MaxCardBits + 1
		s, err := isax.NewSchema(w, w, cb)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(entries) % 1024
		leaf := &tree.Node{Stride: n + rng.Intn(8), Positions: make([]int32, n)}
		leaf.Words = make([]uint8, w*leaf.Stride)
		for i := range leaf.Words {
			leaf.Words[i] = uint8(rng.Intn(s.Cardinality()))
		}
		upper, lower := make([]float64, w), make([]float64, w)
		for i := range upper {
			upper[i] = rng.NormFloat64() * spread
			lower[i] = upper[i]
			if envelope {
				lower[i] -= rng.ExpFloat64() * math.Abs(spread)
				upper[i] += rng.ExpFloat64() * math.Abs(spread)
			}
		}
		tab := s.NewDistTable()
		scalar := func(word []uint8) float64 { return s.MinDistPAAWord(upper, word) }
		if envelope {
			tab.BuildEnvelope(upper, lower)
			scalar = func(word []uint8) float64 { return s.MinDistEnvelopeWord(upper, lower, word) }
		} else {
			tab.BuildPAA(upper)
		}
		var scratch leafScratch
		wordBuf := make([]uint8, w)
		for pass := 0; pass < 2; pass++ {
			lbs := scratch.accumulate(leaf, tab, w)
			if len(lbs) != n {
				t.Fatalf("pass %d: %d bounds for %d entries", pass, len(lbs), n)
			}
			for e, lb := range lbs {
				if got, want := lb*tab.Scale(), scalar(leaf.Word(e, w, wordBuf)); got != want {
					t.Fatalf("pass %d entry %d (w=%d cardBits=%d envelope=%v): column bound %v, scalar %v",
						pass, e, w, cb, envelope, got, want)
				}
			}
		}
	})
}

// BenchmarkLeafScan measures the lower-bound stage of the leaf scan over
// a realistically filled tree: entry-major words with one scalar kernel
// call per entry (the reference) against the fused segment-major column
// kernel over the per-query distance table (leafScratch.accumulate, what
// queries run). Real-distance work is excluded so the numbers isolate
// the lower-bound kernel.
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
	// Entry-major copies of every leaf's words: the reference layout.
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
