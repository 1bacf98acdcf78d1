package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	messi "repro"
)

// prom is one scrape of Prometheus text: sample name with labels → value.
type prom map[string]float64

// promText renders an in-process registry the way GET /metrics does.
func promText(reg *messi.Metrics) prom {
	var sb strings.Builder
	_ = reg.WriteText(&sb) // a strings.Builder never fails
	return parseProm(sb.String())
}

func parseProm(text string) prom {
	p := prom{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// sum adds every sample of the family name whose labels contain all of
// the given label pairs (such as `path="/v1/knn"`).
func (p prom) sum(name string, labels ...string) float64 {
	var s float64
	for k, v := range p {
		base, rest, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			s += v
		}
	}
	return s
}

// histMean is the mean of a histogram family between two scrapes, in
// milliseconds, and the number of observations it averages.
func histMean(before, after prom, name string, labels ...string) (float64, float64) {
	n := after.sum(name+"_count", labels...) - before.sum(name+"_count", labels...)
	s := after.sum(name+"_sum", labels...) - before.sum(name+"_sum", labels...)
	if n <= 0 {
		return 0, 0
	}
	return 1000 * s / n, n
}

// engineMetrics reports the engine layer's admission wait and execution
// time from its histograms between two scrapes.
func (r *runCtx) engineMetrics(before, after prom) error {
	wait, n := histMean(before, after, "messi_admission_wait_seconds")
	exec, m := histMean(before, after, "messi_query_duration_seconds")
	if n == 0 || m == 0 {
		return fmt.Errorf("engine histograms recorded no queries")
	}
	r.metric("engine.admission_wait_ms", wait, "ms", fmt.Sprintf("mean of %.0f, messi_admission_wait_seconds", n))
	r.metric("engine.exec_ms", exec, "ms", fmt.Sprintf("mean of %.0f, messi_query_duration_seconds", m))
	return nil
}

// phaseMetric maps the paper's Figure 13 phase names to metric names.
var phaseMetric = map[string]string{
	"Initialization":       "core.init_ms",
	"MESSI tree pass":      "core.tree_pass_ms",
	"PQ insert node":       "core.pq_insert_ms",
	"PQ remove node":       "core.pq_remove_ms",
	"Distance calculation": "core.dist_calc_ms",
}

// traceSummary is the per-query mean of the fields of messi.Trace.
type traceSummary struct {
	n        int
	phasesMs map[string]float64 // metric name → worker-ms per query
	counters [6]float64         // QueryCounters fields in declaration order
}

func (t *traceSummary) add(phases map[string]float64, c messi.QueryCounters) {
	if t.phasesMs == nil {
		t.phasesMs = map[string]float64{}
	}
	t.n++
	for name, v := range phases {
		t.phasesMs[phaseMetric[name]] += v
	}
	for i, v := range []int64{c.NodesVisited, c.LowerBounds, c.RealDistances, c.LeavesInserted, c.LeavesPruned, c.BSFUpdates} {
		t.counters[i] += float64(v)
	}
}

// report prints the core layer's per-query phase times and counters.
// collection is the number of series a query searched.
func (r *runCtx) reportCore(t traceSummary, collection int) {
	n := float64(t.n)
	note := fmt.Sprintf("per query, mean of %d traced queries", t.n)
	for _, name := range []string{"Initialization", "MESSI tree pass", "PQ insert node", "PQ remove node", "Distance calculation"} {
		m := phaseMetric[name]
		v := 0.0
		if n > 0 {
			v = t.phasesMs[m] / n
		}
		r.metric(m, v, "ms", note+" (worker-ms)")
	}
	names := []string{"core.nodes_visited", "core.lower_bounds", "core.real_distances", "core.leaves_inserted", "core.leaves_pruned", "core.bsf_updates"}
	for i, m := range names {
		v := 0.0
		if n > 0 {
			v = t.counters[i] / n
		}
		r.metric(m, v, "count", note)
	}
	ratio := 0.0
	if n > 0 {
		ratio = 1 - t.counters[2]/n/float64(collection)
	}
	r.metric("core.prune_ratio", ratio, "fraction", fmt.Sprintf("1 - real_distances / %d series", collection))
}

// coreTraceMetrics summarises in-process Result.Trace values.
func (r *runCtx) coreTraceMetrics(results []messi.Result, collection int) {
	var t traceSummary
	for _, res := range results {
		if res.Trace == nil {
			continue
		}
		phases := map[string]float64{}
		for _, p := range res.Trace.Phases {
			phases[p.Name] = float64(p.Duration) / 1e6
		}
		t.add(phases, res.Trace.Counters)
	}
	r.reportCore(t, collection)
}
