package shard

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/series"
)

const (
	testSeries = 3000
	testLength = 64
	testLeaf   = 64
)

func testData(t testing.TB, n int) *series.Collection {
	t.Helper()
	col, err := dataset.Generate(dataset.RandomWalk, n, testLength, 7)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func testQueries(t testing.TB, n int) *series.Collection {
	t.Helper()
	col, err := dataset.Queries(dataset.RandomWalk, n, testLength, 1007)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// search answers one request through Do.
func search(x *Index, req core.Request, opt core.SearchOptions) ([]core.Match, error) {
	res, err := x.Do(req, opt)
	return res.Matches, err
}

// search1 answers one 1-NN request through Do.
func search1(x *Index, req core.Request, opt core.SearchOptions) (core.Match, error) {
	ms, err := search(x, req, opt)
	if err != nil {
		return core.Match{}, err
	}
	return ms[0], nil
}

func testOpts() core.Options {
	return core.Options{LeafCapacity: testLeaf, SearchWorkers: 8, IndexWorkers: 8}
}

// TestEquivalence pins the tentpole contract: for S ∈ {2,4,8}, the sharded
// index answers 1-NN, k-NN and DTW queries bitwise-identically to a single
// index over the same collection.
func TestEquivalence(t *testing.T) {
	data := testData(t, testSeries)
	queries := testQueries(t, 10)
	single, err := Build(data, 1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	window := dtw.WindowSize(testLength, 0.1)

	for _, S := range []int{2, 4, 8} {
		sharded, err := Build(data, S, testOpts())
		if err != nil {
			t.Fatalf("S=%d: %v", S, err)
		}
		if sharded.Len() != single.Len() || sharded.NumShards() != S {
			t.Fatalf("S=%d: len %d shards %d", S, sharded.Len(), sharded.NumShards())
		}
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)

			want, err := search1(single, core.Request{Query: q}, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := search1(sharded, core.Request{Query: q}, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("S=%d query %d: 1-NN %+v, single-shard %+v", S, qi, got, want)
			}

			wantK, err := search(single, core.Request{Query: q, K: 10}, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := search(sharded, core.Request{Query: q, K: 10}, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("S=%d query %d: k-NN returned %d matches, want %d", S, qi, len(gotK), len(wantK))
			}
			for i := range gotK {
				if gotK[i] != wantK[i] {
					t.Fatalf("S=%d query %d: k-NN match %d is %+v, single-shard %+v", S, qi, i, gotK[i], wantK[i])
				}
			}

			wantD, err := search1(single, core.Request{Query: q, DTW: true, Window: window}, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := search1(sharded, core.Request{Query: q, DTW: true, Window: window}, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if gotD != wantD {
				t.Fatalf("S=%d query %d: DTW %+v, single-shard %+v", S, qi, gotD, wantD)
			}
		}
	}
}

// TestSeeds: seeds (global positions, possibly outside the collection)
// participate in sharded answers exactly as in unsharded ones.
func TestSeeds(t *testing.T) {
	data := testData(t, testSeries)
	queries := testQueries(t, 4)
	sharded, err := Build(data, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := queries.At(0)
	// A seed better than anything indexed must win all three searches.
	seed := []core.Match{{Position: 999_999, Dist: 0}}
	m, err := search1(sharded, core.Request{Query: q}, core.SearchOptions{Seeds: seed})
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 999_999 || m.Dist != 0 {
		t.Fatalf("winning seed not returned by 1-NN: %+v", m)
	}
	md, err := search1(sharded, core.Request{Query: q, DTW: true, Window: dtw.WindowSize(testLength, 0.1)}, core.SearchOptions{Seeds: seed})
	if err != nil {
		t.Fatal(err)
	}
	if md.Position != 999_999 {
		t.Fatalf("winning seed not returned by DTW: %+v", md)
	}
	ms, err := search(sharded, core.Request{Query: q, K: 3}, core.SearchOptions{Seeds: seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].Position != 999_999 {
		t.Fatalf("winning seed not first in k-NN: %+v", ms)
	}
	// The seed is handed to every shard; it must appear exactly once.
	for _, m := range ms[1:] {
		if m.Position == 999_999 {
			t.Fatalf("seed duplicated in merged k-NN results: %+v", ms)
		}
	}
}

// TestAtMapping: the global position space round-trips through the shards.
func TestAtMapping(t *testing.T) {
	data := testData(t, 257) // deliberately not a multiple of the shard count
	x, err := Build(data, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < data.Count(); p++ {
		got := x.At(p)
		want := data.At(p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("position %d: shard view differs from source at point %d", p, i)
			}
		}
	}
	if st := x.Stats(); st.Series != 257 {
		t.Fatalf("aggregate stats count %d series, want 257", st.Series)
	}
	if ss := x.ShardStats(); len(ss) != 4 || ss[0].Series != 65 || ss[3].Series != 64 {
		t.Fatalf("per-shard stats %+v", ss)
	}
}

// TestFewerSeriesThanShards: shards beyond the series count stay nil and
// queries still work.
func TestFewerSeriesThanShards(t *testing.T) {
	data := testData(t, 3)
	x, err := Build(data, 8, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if x.Shard(5) != nil {
		t.Fatal("shard beyond the series count is non-nil")
	}
	q := make([]float32, testLength)
	copy(q, data.At(2))
	m, err := search1(x, core.Request{Query: q}, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 2 || m.Dist != 0 {
		t.Fatalf("self-query answered %+v", m)
	}
	ms, err := search(x, core.Request{Query: q, K: 10}, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("k-NN over 3 series returned %d matches", len(ms))
	}
}

// TestFromCoresValidation: mismatched partitions are rejected.
func TestFromCoresValidation(t *testing.T) {
	data := testData(t, 100)
	x, err := Build(data, 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCores([]*core.Index{x.Shard(0), x.Shard(1)}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	// Swapped shards break the round-robin counts only when uneven;
	// a missing shard always does.
	if _, err := FromCores([]*core.Index{x.Shard(0), nil}); err == nil {
		t.Fatal("partition with a missing shard accepted")
	}
	if _, err := FromCores([]*core.Index{nil, nil}); err == nil {
		t.Fatal("all-empty partition accepted")
	}
	if _, err := FromCores(nil); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestBuildValidation covers the construction error paths.
func TestBuildValidation(t *testing.T) {
	data := testData(t, 10)
	if _, err := Build(nil, 2, testOpts()); err == nil {
		t.Fatal("nil collection accepted")
	}
	if _, err := Build(data, 0, testOpts()); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := Build(data, MaxShards+1, testOpts()); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}

// TestApproxSearch: the sharded approximate answer is a valid upper bound
// and finds exact self-matches.
func TestApproxSearch(t *testing.T) {
	data := testData(t, testSeries)
	x, err := Build(data, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, testLength)
	copy(q, data.At(123))
	m, err := search1(x, core.Request{Query: q, Mode: core.ModeApprox}, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist != 0 || m.Position != 123 {
		t.Fatalf("approx self-query answered %+v", m)
	}
	exact, err := search1(x, core.Request{Query: data.At(7)}, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := search1(x, core.Request{Query: data.At(7), Mode: core.ModeApprox}, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Dist < exact.Dist || math.IsInf(approx.Dist, 1) {
		t.Fatalf("approx distance %v not an upper bound of exact %v", approx.Dist, exact.Dist)
	}
}

// TestQueryPanicFailsOnlyThatQuery: a panic on a spawned search worker —
// inside a shard fan-out or a single tree — fails that query with
// core.ErrQueryPanicked instead of the process, and the next query is
// answered exactly.
func TestQueryPanicFailsOnlyThatQuery(t *testing.T) {
	data := testData(t, testSeries)
	q := testQueries(t, 1).At(0)
	for _, S := range []int{1, 2} {
		x, err := Build(data, S, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []core.Request{
			{Query: q},
			{Query: q, K: 5},
			{Query: q, DTW: true, Window: dtw.WindowSize(testLength, 0.1)},
		} {
			t.Cleanup(fault.DisarmAll)
			if err := fault.Arm("core.scanleaf", fault.Spec{Action: fault.Panic}); err != nil {
				t.Fatal(err)
			}
			if _, err := x.Do(req, core.SearchOptions{}); !errors.Is(err, core.ErrQueryPanicked) {
				t.Fatalf("S=%d %+v: err = %v, want core.ErrQueryPanicked", S, req, err)
			}
			fault.DisarmAll()
			res, err := x.Do(req, core.SearchOptions{})
			if err != nil || !res.Exact || len(res.Matches) == 0 {
				t.Fatalf("S=%d: query after the panic: %+v, %v", S, res, err)
			}
		}
	}
}
