package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/stats"
	"repro/internal/tree"
)

// checkSealed asserts that every root subtree of ix is sealed and that
// the sealed leaves hold (tree.CheckInvariants: packed storage and an
// exact symbol box).
func checkSealed(t *testing.T, name string, ix *Index) {
	t.Helper()
	if !ix.Tree.Sealed() {
		t.Fatalf("%s: tree not sealed", name)
	}
	if err := ix.Tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got, want := len(ix.ActiveRoots()), ix.Stats().RootChildren; got != want {
		t.Fatalf("%s: %d active roots, tree has %d", name, got, want)
	}
}

// TestBuildersSealTheTree: every way core makes an Index ends sealed.
// The snapshot formats on disk are covered in internal/persist.
func TestBuildersSealTheTree(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 3000, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(*testing.T) *Index{
		"Build": func(t *testing.T) *Index {
			ix, err := Build(data, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"BuildDirect": func(t *testing.T) *Index {
			ix, err := BuildDirect(data, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"BuildLockedBuffers": func(t *testing.T) *Index {
			ix, err := BuildLockedBuffers(data, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"Restore": func(t *testing.T) *Index {
			ix, err := Build(data, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			back, err := Restore(ix.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return back
		},
	} {
		checkSealed(t, name, build(t))
	}
}

// TestRootSlotBoundMatchesPrefix: the slot-number root bounds of the
// tree pass are bitwise identical to the table's prefix bound of the
// root node itself, for PAA and envelope tables, over every active root
// — in the ascending order workers claim them, and restarting at
// arbitrary slots as a new block claim does.
func TestRootSlotBoundMatchesPrefix(t *testing.T) {
	const length, window = 128, 12
	queries, err := dataset.Queries(dataset.RandomWalk, 4, length, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8, 16} {
		opts := smallOpts()
		opts.Segments = w
		ix := buildTestIndex(t, dataset.RandomWalk, 6000, length, opts)
		roots := ix.ActiveRoots()
		tab := ix.Schema.NewDistTable()
		rng := rand.New(rand.NewSource(int64(w)))
		check := func(kind string, qi int) {
			rb := newRootBounds(tab)
			for i, slot := range roots {
				if i > 0 && rng.Intn(7) == 0 {
					rb = newRootBounds(tab) // a fresh claim mid-list
				}
				root := ix.Tree.Root(int(slot))
				got, want := rb.bound(slot), tab.MinDistPrefix(root.Symbols, root.Bits)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("w=%d %s query %d slot %d: slot bound %v, prefix bound %v", w, kind, qi, slot, got, want)
				}
			}
		}
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)
			tab.BuildPAA(paa.Transform(q, w, nil))
			check("paa", qi)
			u, l := dtw.Envelope(q, window)
			tab.BuildEnvelope(paa.SegmentMax(u, w, nil), paa.SegmentMin(l, w, nil))
			check("envelope", qi)
		}
	}
}

// FuzzLeafBoxBound drives the box bound with random leaves (any segment
// count, cardinality, entry count and column stride, sealed here) and
// random PAA or envelope queries. The bound must be bitwise ≤ every
// entry's scalar bound, and equal to the brute-force minimum of the
// scalar bound over the box: over every word in it when the box is
// small, else at the word of per-segment minimal cells.
func FuzzLeafBoxBound(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(8), uint16(300), float64(1), false)
	f.Add(int64(2), uint8(3), uint8(4), uint16(7), float64(3), true)
	f.Add(int64(3), uint8(2), uint8(2), uint16(1), float64(0.5), false)
	f.Add(int64(4), uint8(1), uint8(8), uint16(64), float64(1e150), true)
	f.Add(int64(5), uint8(4), uint8(3), uint16(40), float64(0.01), true)
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
		n := int(entries)%512 + 1
		leaf := &tree.Node{Stride: n + rng.Intn(8), Positions: make([]int32, n, n+rng.Intn(3))}
		leaf.Words = make([]uint8, w*leaf.Stride)
		// Narrow symbol ranges per segment, so boxes both miss and
		// straddle the query's zero cells.
		for seg := 0; seg < w; seg++ {
			base, width := rng.Intn(s.Cardinality()), 1+rng.Intn(s.Cardinality())
			for e := 0; e < n; e++ {
				leaf.Words[seg*leaf.Stride+e] = uint8(min(base+rng.Intn(width), s.Cardinality()-1))
			}
		}
		before := make([][]uint8, n)
		for e := range before {
			before[e] = leaf.Word(e, w, nil)
		}
		leaf.Seal(w)
		if leaf.Stride != n || cap(leaf.Positions) != n {
			t.Fatalf("sealed leaf not packed: stride %d, %d positions (capacity %d)", leaf.Stride, n, cap(leaf.Positions))
		}
		for e := range before {
			if got := leaf.Word(e, w, nil); string(got) != string(before[e]) {
				t.Fatalf("seal changed entry %d: %v, was %v", e, got, before[e])
			}
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
		box := tab.MinDistBox(leaf.Lo[:w], leaf.Hi[:w])
		for e, word := range before {
			if lb := scalar(word); !(box <= lb) {
				t.Fatalf("entry %d (w=%d cardBits=%d envelope=%v): box bound %v above entry bound %v",
					e, w, cb, envelope, box, lb)
			}
		}

		// The word of per-segment minimal cells inside the box.
		arg := make([]uint8, w)
		volume := 1
		for seg := 0; seg < w; seg++ {
			row := tab.Row(seg)
			arg[seg] = leaf.Lo[seg]
			for sym := int(leaf.Lo[seg]); sym <= int(leaf.Hi[seg]); sym++ {
				if row[sym] < row[arg[seg]] {
					arg[seg] = uint8(sym)
				}
			}
			volume = min(volume*(int(leaf.Hi[seg]-leaf.Lo[seg])+1), 1<<20)
		}
		want := scalar(arg)
		if volume <= 1<<12 {
			// Every word in the box, odometer order.
			word := append([]uint8(nil), leaf.Lo[:w]...)
			want = math.Inf(1)
			for {
				want = min(want, scalar(word))
				seg := w - 1
				for ; seg >= 0 && word[seg] == leaf.Hi[seg]; seg-- {
					word[seg] = leaf.Lo[seg]
				}
				if seg < 0 {
					break
				}
				word[seg]++
			}
		}
		if math.Float64bits(box) != math.Float64bits(want) {
			t.Fatalf("w=%d cardBits=%d envelope=%v volume %d: box bound %v, brute-force minimum %v",
				w, cb, envelope, volume, box, want)
		}
	})
}

// TestLeavesInsertedCountsBoxGate pins the leaf gate by count: seeded
// with the true 1-NN distance the pruning bound never moves, so the
// leaves that reach the queues are exactly those whose box bound is
// below it. A tree pass that queued leaves on their prefix bounds alone
// would insert more (checked to differ on this data).
func TestLeavesInsertedCountsBoxGate(t *testing.T) {
	const length = 64
	data, err := dataset.Generate(dataset.RandomWalk, 20000, length, 13)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.LeafCapacity = 0 // the default: multi-entry leaves
	ix, err := Build(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := dataset.Queries(dataset.RandomWalk, 6, length, 77)
	if err != nil {
		t.Fatal(err)
	}
	w := ix.Schema.Segments
	tab := ix.Schema.NewDistTable()
	var boxTotal, prefixTotal int64
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		best := bruteForce1NN(data, q)
		tab.BuildPAA(paa.Transform(q, w, nil))
		var byBox, byPrefix int64
		ix.Tree.ForEachLeaf(func(n *tree.Node) {
			if n.LeafLen() == 0 {
				return
			}
			if tab.MinDistBox(n.Lo[:w], n.Hi[:w]) < best.Dist {
				byBox++
			}
			if tab.MinDistPrefix(n.Symbols, n.Bits) < best.Dist {
				byPrefix++
			}
		})
		boxTotal += byBox
		prefixTotal += byPrefix
		for _, workers := range []int{1, 4} {
			ctrs := &stats.Counters{}
			ms, err := run(ix, Request{Query: q}, SearchOptions{Workers: workers, Seeds: []Match{best}, Counters: ctrs})
			if err != nil {
				t.Fatal(err)
			}
			if ms[0].Dist != best.Dist {
				t.Fatalf("query %d: answer %+v, want %+v", qi, ms[0], best)
			}
			if got := ctrs.Snapshot().LeavesInserted; got != byBox {
				t.Errorf("query %d workers=%d: %d leaves inserted, want %d with a box bound below the 1-NN distance (%d by prefix)",
					qi, workers, got, byBox, byPrefix)
			}
		}
	}
	if boxTotal >= prefixTotal {
		t.Fatalf("box bounds admit %d leaves, prefix bounds %d: the data does not exercise the gate", boxTotal, prefixTotal)
	}
}

// BenchmarkTreePass measures one query's tree pass — the slot-number
// root bounds, the prefix bounds below surviving roots, and the box gate
// with its queue pushes — over a 200K-series index with default options,
// pruning against each query's final 1-NN distance. Query set-up (table
// build, approximate descent) is excluded from ns/op.
func BenchmarkTreePass(b *testing.B) {
	const length = 256
	data, err := dataset.Generate(dataset.RandomWalk, 200000, length, 11)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(data, Options{IndexWorkers: 4})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := dataset.Queries(dataset.RandomWalk, 16, length, 12)
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]Match, queries.Count())
	for qi := range seeds {
		if seeds[qi], err = ix.Search(queries.At(qi), SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	st := NewQueryState()
	prepare := func(qi int, ctrs *stats.Counters) *SearchRun {
		r, err := ix.NewRun(Request{Query: queries.At(qi)}, st,
			SearchOptions{Workers: 1, Queues: 1, Seeds: seeds[qi : qi+1], Counters: ctrs})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	// The work per pass, counted once outside the timed loop.
	ctrs := &stats.Counters{}
	for qi := range seeds {
		prepare(qi, ctrs).InsertPhase(0)
	}
	c := ctrs.Snapshot()
	// Only the passes are timed, by hand: StopTimer/StartTimer around
	// the set-up would stop the world each iteration.
	var passes time.Duration
	for i := 0; i < b.N; i++ {
		r := prepare(i%len(seeds), nil)
		t0 := time.Now()
		r.InsertPhase(0)
		passes += time.Since(t0)
	}
	b.ReportMetric(float64(passes.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(c.NodesVisited)/float64(len(seeds)), "nodes/op")
	b.ReportMetric(float64(c.LeavesInserted)/float64(len(seeds)), "leaves/op")
	b.ReportMetric(float64(c.LowerBoundCalcs)/float64(len(seeds)), "lbs/op")
}
