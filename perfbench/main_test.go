package main

import (
	"testing"
	"time"
)

// inputHashes hashes what a run of each workload feeds the system: per
// workload the data, the queries and the operation sequence. The
// in-process workloads are generated at a reduced collection size (same
// generators, same seed derivation).
func inputHashes(t *testing.T, seed int64) map[string][3]string {
	t.Helper()
	hs := map[string][3]string{}
	for name, spec := range map[string]inprocSpec{"exact-randomwalk": exactRandomWalk, "dtw-sald": dtwSALD} {
		spec.count = 2000
		in, err := makeInprocInputs(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		hs[name] = [3]string{hashFloats(in.data.Data), hashFloats(in.queries.Data), hashInts(in.ops)}
	}
	in, err := makeLiveInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	hs["live-serve"] = [3]string{hashFloats(in.base.Data), hashFloats(in.queries.Data), in.opsHash()}
	return hs
}

// TestSeedDeterminesInputs: the same seed gives identical hashes, another
// seed different queries and operations, and different data except for
// the fixed stand-ins of real corpora (see corpusSeed).
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := inputHashes(t, 7), inputHashes(t, 7), inputHashes(t, 8)
	for w, ha := range a {
		for i, what := range []string{"data", "queries", "ops"} {
			if ha[i] != b[w][i] {
				t.Errorf("%s %s: seed 7 hashed %s, then %s", w, what, ha[i], b[w][i])
			}
			fixed := what == "data" && w != "exact-randomwalk"
			if (ha[i] == c[w][i]) != fixed {
				t.Errorf("%s %s: seeds 7 and 8 hash %s and %s", w, what, ha[i], c[w][i])
			}
		}
	}
}

func TestDeriveSeparatesStreams(t *testing.T) {
	if derive(1, "data") == derive(1, "queries") || derive(1, "data") == derive(2, "data") {
		t.Fatal("derived seeds collide")
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.id()
	tr.record(0, parent, 1, "api/child", at(2), at(6))
	tr.record(0, parent, 1, "api/child", at(4), at(8)) // overlaps the first
	tr.record(parent, 0, 1, "http/parent", at(0), at(10))
	got := map[string]time.Duration{}
	for _, ls := range tr.selfTimes() {
		got[ls.Layer] = ls.Self
	}
	if got["http"] != 4*time.Millisecond || got["api"] != 8*time.Millisecond {
		t.Fatalf("self times %v, want http 4ms and api 8ms", got)
	}
}
