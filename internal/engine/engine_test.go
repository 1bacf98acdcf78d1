package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/stats"
)

const (
	testSeries = 4000
	testLength = 128
)

var (
	testOnce sync.Once
	testIx   *core.Index
	testQs   *series.Collection
)

// testIndex builds one small index (and query set) shared by all tests.
func testIndex(t *testing.T) (*core.Index, *series.Collection) {
	t.Helper()
	testOnce.Do(func() {
		data, err := dataset.Generate(dataset.RandomWalk, testSeries, testLength, 7)
		if err != nil {
			panic(err)
		}
		ix, err := core.Build(data, core.Options{LeafCapacity: 100})
		if err != nil {
			panic(err)
		}
		qs, err := dataset.Queries(dataset.RandomWalk, 16, testLength, 7007)
		if err != nil {
			panic(err)
		}
		testIx, testQs = ix, qs
	})
	return testIx, testQs
}

// search answers an exact 1-NN query through Do.
func search(e *Engine, q []float32) (core.Match, error) {
	res, err := e.Do(core.Request{Query: q})
	if err != nil {
		return core.Match{}, err
	}
	return res.Matches[0], nil
}

// searchKNN answers an exact k-NN query through Do.
func searchKNN(e *Engine, q []float32, k int) ([]core.Match, error) {
	res, err := e.Do(core.Request{Query: q, K: k})
	return res.Matches, err
}

// spawn answers a request in the per-query spawn mode over the bare
// index — the reference every pooled answer must match.
func spawn(ix *core.Index, req core.Request) ([]core.Match, error) {
	res, err := shard.Wrap(ix).Do(req, core.SearchOptions{})
	return res.Matches, err
}

// TestSearchMatchesCore: the pooled engine must return exactly the answer
// of the per-query-spawn core search on the same inputs.
func TestSearchMatchesCore(t *testing.T) {
	ix, qs := testIndex(t)
	e := New(ix, Options{PoolWorkers: 8})
	defer e.Close()
	for i := 0; i < qs.Count(); i++ {
		q := qs.At(i)
		want, err := ix.Search(q, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: engine %+v, core %+v", i, got, want)
		}
	}
}

// TestSearchKNNMatchesCore: k-NN parity between the engine and core.
func TestSearchKNNMatchesCore(t *testing.T) {
	ix, qs := testIndex(t)
	e := New(ix, Options{PoolWorkers: 8})
	defer e.Close()
	for _, k := range []int{1, 5, 20} {
		for i := 0; i < 4; i++ {
			q := qs.At(i)
			want, err := spawn(ix, core.Request{Query: q, K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := searchKNN(e, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d query %d: engine returned %d matches, core %d", k, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("k=%d query %d match %d: engine %+v, core %+v", k, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestConcurrentQueriers hammers one engine from many goroutines (run
// under -race in CI) and checks every answer against the single-query
// path.
func TestConcurrentQueriers(t *testing.T) {
	ix, qs := testIndex(t)
	want := make([]core.Match, qs.Count())
	for i := range want {
		m, err := ix.Search(qs.At(i), core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}

	// A deliberately over-subscribed configuration: more concurrent
	// queriers than admission slots, fewer pool workers than queriers.
	e := New(ix, Options{PoolWorkers: 6, QueryWorkers: 3, MaxConcurrent: 4})
	defer e.Close()

	const queriers = 10
	const rounds = 5
	var wg sync.WaitGroup
	errc := make(chan error, queriers)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % qs.Count()
				got, err := search(e, qs.At(i))
				if err != nil {
					errc <- err
					return
				}
				if got != want[i] {
					t.Errorf("querier %d round %d query %d: got %+v, want %+v", g, r, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSearchBatch: batch answers match element-wise, and a bad query
// surfaces an error without corrupting the others.
func TestSearchBatch(t *testing.T) {
	ix, qs := testIndex(t)
	e := New(ix, Options{PoolWorkers: 8, QueryWorkers: 2})
	defer e.Close()

	queries := make([][]float32, qs.Count())
	for i := range queries {
		queries[i] = qs.At(i)
	}
	got, err := e.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		want, err := ix.Search(queries[i], core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("batch query %d: got %+v, want %+v", i, got[i], want)
		}
	}

	bad := [][]float32{qs.At(0), make([]float32, testLength/2)}
	if _, err := e.SearchBatch(bad); err == nil {
		t.Fatal("batch with a wrong-length query did not error")
	}
}

// TestClose: queries after Close fail with ErrClosed; Close is idempotent.
func TestClose(t *testing.T) {
	ix, qs := testIndex(t)
	e := New(ix, Options{PoolWorkers: 4})
	if _, err := search(e, qs.At(0)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if _, err := search(e, qs.At(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search after Close: err = %v, want ErrClosed", err)
	}
	if _, err := searchKNN(e, qs.At(0), 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchKNN after Close: err = %v, want ErrClosed", err)
	}
}

// TestOptionDefaults: zero options inherit from the index; QueryWorkers
// is clamped to the pool size.
func TestOptionDefaults(t *testing.T) {
	ix, _ := testIndex(t)
	e := New(ix, Options{})
	defer e.Close()
	o := e.Options()
	if o.PoolWorkers != ix.Opts.SearchWorkers {
		t.Errorf("PoolWorkers = %d, want index default %d", o.PoolWorkers, ix.Opts.SearchWorkers)
	}
	if o.QueryWorkers != o.PoolWorkers {
		t.Errorf("QueryWorkers = %d, want PoolWorkers %d", o.QueryWorkers, o.PoolWorkers)
	}
	if o.Queues != ix.Opts.QueueCount {
		t.Errorf("Queues = %d, want index default %d", o.Queues, ix.Opts.QueueCount)
	}
	if o.MaxConcurrent != 1 {
		t.Errorf("MaxConcurrent = %d, want 1", o.MaxConcurrent)
	}

	e2 := New(ix, Options{PoolWorkers: 12, QueryWorkers: 99, Queues: 3})
	defer e2.Close()
	o2 := e2.Options()
	if o2.QueryWorkers != 12 {
		t.Errorf("QueryWorkers = %d, want clamp to PoolWorkers 12", o2.QueryWorkers)
	}
	if o2.Queues != 3 {
		t.Errorf("Queues = %d, want 3", o2.Queues)
	}
}

// TestShardedEngineMatchesSingle: a sharded generation answered through
// the pool must return exactly the single-index answers — the fan-out
// (shared BSF, per-shard work units, pqueue k-NN merge) is invisible in
// the results.
func TestShardedEngineMatchesSingle(t *testing.T) {
	ix, qs := testIndex(t)
	sx, err := shard.Build(testData(t), 4, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSharded(sx, Options{PoolWorkers: 8, QueryWorkers: 2})
	defer e.Close()
	if e.Index() != nil {
		t.Fatal("Index() non-nil for a sharded generation")
	}
	if e.Shards() != sx {
		t.Fatal("Shards() does not return the installed generation")
	}
	for i := 0; i < qs.Count(); i++ {
		q := qs.At(i)
		want, err := ix.Search(q, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: sharded engine %+v, core %+v", i, got, want)
		}
		wantK, err := spawn(ix, core.Request{Query: q, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := searchKNN(e, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != len(wantK) {
			t.Fatalf("query %d: sharded k-NN returned %d, want %d", i, len(gotK), len(wantK))
		}
		for j := range gotK {
			if gotK[j] != wantK[j] {
				t.Fatalf("query %d match %d: sharded %+v, core %+v", i, j, gotK[j], wantK[j])
			}
		}
	}
}

// TestSwapShardedGenerations: an engine can move between unsharded and
// sharded generations; in both directions queries see the new one.
func TestSwapShardedGenerations(t *testing.T) {
	ix, qs := testIndex(t)
	sx, err := shard.Build(testData(t), 2, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix, Options{PoolWorkers: 4})
	defer e.Close()
	if e.Index() != ix {
		t.Fatal("initial single generation not visible")
	}
	if prev := e.SwapSharded(sx); prev == nil || prev.Single() != ix {
		t.Fatalf("SwapSharded returned %v, want the wrapped single index", prev)
	}
	q := qs.At(0)
	want, err := ix.Search(q, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-swap query answered %+v, want %+v", got, want)
	}
	if prev := e.Swap(ix); prev != nil {
		t.Fatalf("Swap from a sharded generation returned single index %v, want nil", prev)
	}
	if e.Index() != ix {
		t.Fatal("swap back to the single generation not visible")
	}
}

// testData exposes the shared test collection for sharded builds.
func testData(t *testing.T) *series.Collection {
	t.Helper()
	data, err := dataset.Generate(dataset.RandomWalk, testSeries, testLength, 7)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTracedDTWReportsPhases: DTW queries run the pooled phases, so a
// traced DTW request attributes time to the tree pass, the queue
// insertions and the distance calculations (Figure 13), not only init.
func TestTracedDTWReportsPhases(t *testing.T) {
	ix, qs := testIndex(t)
	for _, S := range []int{1, 2} {
		sx := shard.Wrap(ix)
		if S > 1 {
			var err error
			if sx, err = shard.Build(ix.Data, S, ix.Opts); err != nil {
				t.Fatal(err)
			}
		}
		e := NewSharded(sx, Options{PoolWorkers: 4})
		bd := &stats.Breakdown{}
		if _, err := e.Do(core.Request{Query: qs.At(0), DTW: true,
			Window: dtw.WindowSize(testLength, 0.1), Breakdown: bd}); err != nil {
			t.Fatal(err)
		}
		e.Close()
		for _, p := range []stats.Phase{stats.PhaseInit, stats.PhaseTreePass, stats.PhasePQInsert, stats.PhaseDistCalc} {
			if bd.Get(p) <= 0 {
				t.Errorf("S=%d: traced DTW query reports no %v time", S, p)
			}
		}
	}
}
