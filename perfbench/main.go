// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run builds a workload's inputs from a seed, drives the
// system through its public functions or messi-serve's HTTP API for a
// fixed number of seconds, checks every answer, and prints each metric by
// name with its unit; the last line is a JSON summary. See README.md.
//
//	perfbench --workload exact-randomwalk --seed 1 --seconds 15 --trace 0
//	perfbench report <runs-dir> [<change-runs-dir>]
//	perfbench ledger -commit <sha> <runs-dir>...
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd are the metrics an untraced run reports in its JSON line;
// perLayer are the ones a traced run reports. BENCHMARK.json lists the
// same names.
var (
	endToEnd = []string{"setup_s", "qps", "p50_ms", "p90_ms", "mem_mb"}
	perLayer = []string{
		"kernels.mindist_ns", "kernels.euclid_ns", "kernels.lbkeogh_ns", "kernels.dtw_ns",
		"core.init_ms", "core.tree_pass_ms", "core.pq_insert_ms", "core.pq_remove_ms", "core.dist_calc_ms",
		"core.nodes_visited", "core.lower_bounds", "core.real_distances",
		"core.leaves_inserted", "core.leaves_pruned", "core.bsf_updates", "core.prune_ratio",
		"core.build_summarize_s", "core.build_tree_s",
		"api.overhead_us",
		"shard.fanout_overhead_ms", "shard.imbalance",
		"engine.admission_wait_ms", "engine.exec_ms", "engine.allocs_per_query", "engine.bytes_per_query",
		"live.delta_scan_ms", "live.delta_series", "live.rebuilds", "live.rebuild_s",
		"wal.append_ms", "wal.bytes_per_user_byte", "wal.replay_s",
		"persist.load_s",
		"http.server_ms", "http.handler_overhead_ms", "http.client_overhead_ms",
		"trace.overhead",
	}
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*runCtx) error{
	"exact-randomwalk": func(r *runCtx) error { return runInproc(r, exactRandomWalk) },
	"dtw-sald":         func(r *runCtx) error { return runInproc(r, dtwSALD) },
	"live-serve":       runLive,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "report":
			os.Exit(reportMain(os.Args[2:]))
		case "ledger":
			os.Exit(ledgerMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runCtx carries one run's settings and collects its output.
type runCtx struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	serve    string // messi-serve binary
	dir      string // scratch directory of this run, removed at the end
	outDir   string
	tr       *tracer // nil when untraced

	lines     []string
	metrics   map[string]metricVal
	attempted int
	failed    int
	wrong     int
	problems  []string // wrong answers and failed checks, listed on stderr
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: exact-randomwalk, live-serve or dtw-sald")
	seed := fs.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := fs.Int("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	serve := fs.String("serve", "", "messi-serve binary, built from this checkout")
	out := fs.String("out", ".bench_build", "directory for scratch files and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(*serve); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -serve must name the messi-serve binary:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &runCtx{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		serve: *serve, dir: dir, outDir: *out, metrics: map[string]metricVal{}}
	if r.traced {
		r.tr = newTracer()
	}
	r.logf("workload %s seed %d seconds %d trace %d", r.workload, r.seed, r.seconds, *trace)
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if r.traced {
		for _, ls := range r.tr.selfTimes() {
			r.logf("self %s %.3f ms over %d spans", ls.Layer, float64(ls.Self)/1e6, ls.Spans)
		}
		path := filepath.Join(r.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		r.logf("spans written to %s", path)
	}
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	summary := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]metricVal{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		summary.Metrics[n] = m
	}
	if summary.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed in the timed window")
		return 1
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func (r *runCtx) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// metric prints one metric line ("metric <name> <value> <unit> <note>")
// and keeps the value for the JSON summary.
func (r *runCtx) metric(name string, v float64, unit, note string) {
	r.metrics[name] = metricVal{Value: v, Unit: unit}
	r.logf("metric %s %s %s %s", name, fmtFloat(v), unit, note)
}

// latency prints a latency class as p50 and p90 metric lines plus a p99
// line no gate uses, each with its sample count.
func (r *runCtx) latency(prefix string, lat []float64) {
	n := fmt.Sprintf("n=%d", len(lat))
	if len(lat) == 0 {
		r.logf("extra %s no samples", prefix)
		return
	}
	r.metric(prefix+"p50_ms", percentile(lat, 0.50), "ms", n)
	r.metric(prefix+"p90_ms", percentile(lat, 0.90), "ms", n)
	r.logf("extra %sp99_ms %s ms %s", prefix, fmtFloat(percentile(lat, 0.99)), n)
}

// problem records a wrong answer or a failed check.
func (r *runCtx) problem(format string, args ...any) {
	r.wrong++
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// errorRate prints error_rate: (failed + refused + wrong) ÷ attempted.
func (r *runCtx) errorRate(refused int) {
	bad := r.failed + refused + r.wrong
	r.failed = bad
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(bad) / float64(r.attempted)
	}
	r.logf("extra error_rate %s fraction (%d wrong, %d refused, %d failed calls, %d attempted)",
		fmtFloat(rate), r.wrong, refused, bad-refused-r.wrong, r.attempted)
}

func fmtFloat(v float64) string { return fmt.Sprintf("%.6g", v) }

// derive gives each input of a run its own seed, so the data, the
// queries and the operation sequence are independent streams of one
// workload seed.
func derive(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := h.Sum64() ^ uint64(seed)*0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x >> 1)
}

// hashFloats is the SHA-256 of xs as little-endian IEEE-754 bytes.
func hashFloats(xs []float32) string {
	h := sha256.New()
	buf := make([]byte, 4096)
	for len(xs) > 0 {
		n := min(len(xs), len(buf)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(xs[i]))
		}
		h.Write(buf[:4*n])
		xs = xs[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashInts is the SHA-256 of xs as little-endian 64-bit integers.
func hashInts(xs []int) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameDist reports whether two distances agree within float tolerance.
func sameDist(a, b float64) bool {
	return math.Abs(a-b) <= 1e-4*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// window is one timed interval of a closed loop.
type window struct{ start, end time.Time }

func (w window) holds(start, end time.Time) bool {
	return !start.Before(w.start) && !end.After(w.end)
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }
