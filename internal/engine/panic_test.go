package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// TestWorkerPanicFailsOnlyThatQuery is the panic-isolation contract: a
// query that panics on a pool worker fails with ErrQueryPanicked while
// every concurrent query on the same engine completes with the exact
// answer, and the pool keeps serving afterwards. The panic is injected
// through the engine.unit failpoint (one-shot, so exactly one query is
// poisoned regardless of scheduling). DTW queries run as pool units
// too, so a panic inside their leaf scan (core.scanleaf) is isolated the
// same way.
func TestWorkerPanicFailsOnlyThatQuery(t *testing.T) {
	ix, qs := testIndex(t)
	euclid := func(q []float32) core.Request { return core.Request{Query: q} }
	for _, tc := range []struct {
		name  string
		mk    func(reg *metrics.Registry) *Engine
		point string
		req   func(q []float32) core.Request
	}{
		{"single", func(reg *metrics.Registry) *Engine {
			return New(ix, Options{PoolWorkers: 8, Metrics: reg})
		}, "engine.unit", euclid},
		{"sharded", func(reg *metrics.Registry) *Engine {
			return NewSharded(shard.Wrap(ix), Options{PoolWorkers: 8, Metrics: reg})
		}, "engine.unit", euclid},
		{"dtw", func(reg *metrics.Registry) *Engine {
			return New(ix, Options{PoolWorkers: 8, Metrics: reg})
		}, "core.scanleaf", func(q []float32) core.Request {
			return core.Request{Query: q, DTW: true, Window: dtw.WindowSize(testLength, 0.1)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(fault.DisarmAll)
			reg := metrics.NewRegistry()
			e := tc.mk(reg)
			defer e.Close()

			do := func(q []float32) (core.Match, error) {
				res, err := e.Do(tc.req(q))
				if err != nil {
					return core.Match{}, err
				}
				return res.Matches[0], nil
			}
			want := make([]core.Match, qs.Count())
			for i := range want {
				ms, err := spawn(ix, tc.req(qs.At(i)))
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ms[0]
			}

			if err := fault.Arm(tc.point, fault.Spec{Action: fault.Panic}); err != nil {
				t.Fatal(err)
			}
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				errs    []error
				wrong   int
				correct int
			)
			for i := 0; i < qs.Count(); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := do(qs.At(i))
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						errs = append(errs, err)
						return
					}
					if got != want[i] {
						wrong++
						return
					}
					correct++
				}(i)
			}
			wg.Wait()
			// Exactly one query was poisoned (one-shot failpoint); it must
			// carry the typed sentinel, and nobody else may be disturbed.
			if len(errs) != 1 {
				t.Fatalf("got %d failed queries, want exactly 1 (errs: %v)", len(errs), errs)
			}
			if !errors.Is(errs[0], ErrQueryPanicked) {
				t.Fatalf("poisoned query error = %v, want ErrQueryPanicked", errs[0])
			}
			if wrong != 0 {
				t.Fatalf("%d concurrent queries returned wrong answers", wrong)
			}
			if correct != qs.Count()-1 {
				t.Fatalf("%d concurrent queries completed exactly, want %d", correct, qs.Count()-1)
			}
			if got := reg.Counter("messi_query_panics_total",
				"Query panics recovered on pool workers (each failed only its own query).").Value(); got != 1 {
				t.Fatalf("messi_query_panics_total = %d, want 1", got)
			}

			// The pool survived: the same engine keeps answering exactly.
			for i := 0; i < qs.Count(); i++ {
				got, err := do(qs.At(i))
				if err != nil {
					t.Fatalf("query %d after panic: %v", i, err)
				}
				if got != want[i] {
					t.Fatalf("query %d after panic: got %+v, want %+v", i, got, want[i])
				}
			}
		})
	}
}

// TestScanLeafPanicIsolated injects the panic one layer deeper — inside
// core's leaf scan, the hottest loop of the search — and checks the
// engine still converts it into a per-query error.
func TestScanLeafPanicIsolated(t *testing.T) {
	ix, qs := testIndex(t)
	t.Cleanup(fault.DisarmAll)
	e := New(ix, Options{PoolWorkers: 4})
	defer e.Close()
	if err := fault.Arm("core.scanleaf", fault.Spec{Action: fault.Error}); err != nil {
		t.Fatal(err)
	}
	if _, err := search(e, qs.At(0)); !errors.Is(err, ErrQueryPanicked) {
		t.Fatalf("err = %v, want ErrQueryPanicked", err)
	} else if !errors.Is(err, fault.ErrInjected) {
		// scanLeaf panics with the injected error value, and panicErr
		// keeps error chains matchable through the sentinel.
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}
	// Disarmed (one-shot): the next query on the same pool is exact.
	want, err := ix.Search(qs.At(1), core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(e, qs.At(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after recovery: got %+v, want %+v", got, want)
	}
}

// TestKNNWorkerPanic: the k-NN path shares the pool and the isolation.
func TestKNNWorkerPanic(t *testing.T) {
	ix, qs := testIndex(t)
	t.Cleanup(fault.DisarmAll)
	e := New(ix, Options{PoolWorkers: 4})
	defer e.Close()
	if err := fault.Arm("engine.unit", fault.Spec{Action: fault.Panic}); err != nil {
		t.Fatal(err)
	}
	if _, err := searchKNN(e, qs.At(0), 5); !errors.Is(err, ErrQueryPanicked) {
		t.Fatalf("err = %v, want ErrQueryPanicked", err)
	}
	ms, err := searchKNN(e, qs.At(0), 5)
	if err != nil {
		t.Fatalf("k-NN after panic: %v", err)
	}
	if len(ms) != 5 {
		t.Fatalf("k-NN after panic returned %d matches, want 5", len(ms))
	}
}
