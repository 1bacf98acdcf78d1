package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// savedRun is one run's output as saved by repeat.sh.
type savedRun struct {
	group   string // "<workload> trace=<0|1>"
	seed    int64
	seconds int
	metrics map[string]float64
	units   map[string]string
	correct bool
}

// reportMain prints, for one directory of saved runs, each metric's
// median, quartiles and spread against its bound; for two (parent, then
// change), the comparison rule of the benchmark's README.
func reportMain(args []string) int {
	fs := flag.NewFlagSet("perfbench report", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench report [-bench BENCHMARK.json] <runs-dir> [<change-runs-dir>]")
		return 2
	}
	spec, err := loadBench(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench report:", err)
		return 1
	}
	sets := make([]map[string][]savedRun, fs.NArg())
	for i, dir := range fs.Args() {
		if sets[i], err = loadRuns(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			return 1
		}
	}
	if len(sets) == 1 {
		printSteadiness(sets[0], spec)
	} else {
		printComparison(sets[0], sets[1], spec)
	}
	return 0
}

func loadBench(path string) (map[string]benchMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]benchMetric{}
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// loadRuns parses every saved run (*.txt) of a directory, grouped by
// workload and trace flag.
func loadRuns(dir string) (map[string][]savedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	groups := map[string][]savedRun{}
	for _, f := range files {
		run, err := parseRun(f)
		if err != nil {
			return nil, err
		}
		groups[run.group] = append(groups[run.group], run)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no saved runs in %s", dir)
	}
	for _, runs := range groups {
		sort.Slice(runs, func(i, j int) bool { return runs[i].seed < runs[j].seed })
	}
	return groups, nil
}

func parseRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	run := savedRun{metrics: map[string]float64{}, units: map[string]string{}}
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) >= 8 && fields[0] == "workload":
			run.group = fields[1] + " trace=" + fields[7]
			run.seed, _ = strconv.ParseInt(fields[3], 10, 64)
			run.seconds, _ = strconv.Atoi(fields[5])
		case len(fields) >= 4 && fields[0] == "metric":
			if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
				run.metrics[fields[1]] = v
				run.units[fields[1]] = fields[3]
			}
		}
		if len(fields) > 0 {
			last = sc.Text()
		}
	}
	var summary struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(last), &summary); err != nil || run.group == "" {
		return savedRun{}, fmt.Errorf("%s is not a complete run output", path)
	}
	run.correct = summary.Correct
	return run, nil
}

// metricNames lists the metrics of a group of runs: the gated ones in
// their BENCHMARK.json order first, then the rest by name.
func metricNames(runs []savedRun) []string {
	seen := map[string]bool{}
	for _, r := range runs {
		for n := range r.metrics {
			seen[n] = true
		}
	}
	var gated, rest []string
	for _, n := range append(append([]string{}, endToEnd...), perLayer...) {
		if seen[n] {
			gated = append(gated, n)
			delete(seen, n)
		}
	}
	for n := range seen {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(gated, rest...)
}

func values(runs []savedRun, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func sortedGroups(m map[string][]savedRun) []string {
	var gs []string
	for g := range m {
		gs = append(gs, g)
	}
	sort.Strings(gs)
	return gs
}

func printSteadiness(groups map[string][]savedRun, spec map[string]benchMetric) {
	fmt.Printf("%-28s %-26s %4s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, g := range sortedGroups(groups) {
		runs := groups[g]
		wrong := 0
		for _, r := range runs {
			if !r.correct {
				wrong++
			}
		}
		for _, name := range metricNames(runs) {
			vs := values(runs, name)
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / math.Abs(med)
			bound, verdict := "-", "no bound"
			if m, ok := spec[name]; ok && m.Bound > 0 && g[len(g)-1] == '0' {
				bound = fmtFloat(m.Bound)
				switch {
				case spread <= m.Bound/3:
					verdict = "steady (below a third of the bound)"
				case spread <= m.Bound:
					verdict = "within bound"
				default:
					verdict = "OVER BOUND"
				}
			}
			fmt.Printf("%-28s %-26s %4d %12s %12s %12s %8.4f %6s  %s\n", g, name, len(vs), fmtFloat(med), fmtFloat(q1), fmtFloat(q3), spread, bound, verdict)
		}
		if wrong > 0 {
			fmt.Printf("%-28s %d of %d runs reported wrong answers\n", g, wrong, len(runs))
		}
	}
}

// higherIsBetter gives a metric's direction: BENCHMARK.json's when it
// has one, otherwise throughput-like and ratio-of-useful-work metrics
// are better higher and everything else lower.
func higherIsBetter(name string, spec map[string]benchMetric) bool {
	if m, ok := spec[name]; ok && m.Better != "" {
		return m.Better == "higher"
	}
	return name == "qps" || name == "trace.overhead" || name == "core.prune_ratio"
}

// printComparison applies the rule for claiming a gain: the change wins
// at least nine in ten pairs (ties count for neither) and the medians
// differ by more than the parent's interquartile range. Otherwise it
// checks the change is no worse than the bound, and calls a metric
// unresolved when the parent's own spread exceeds the bound.
func printComparison(parent, change map[string][]savedRun, spec map[string]benchMetric) {
	fmt.Printf("%-28s %-26s %26s %26s %7s  %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "wins", "verdict")
	for _, g := range sortedGroups(parent) {
		pr, cr := parent[g], change[g]
		if len(cr) == 0 {
			fmt.Printf("%-28s no change runs\n", g)
			continue
		}
		for _, name := range metricNames(pr) {
			pv, cv := values(pr, name), values(cr, name)
			if len(cv) == 0 {
				continue
			}
			higher := higherIsBetter(name, spec)
			better := func(c, p float64) bool { return (higher && c > p) || (!higher && c < p) }
			pairs := min(len(pv), len(cv))
			wins := 0
			for i := 0; i < pairs; i++ {
				if better(cv[i], pv[i]) {
					wins++
				}
			}
			pm, cm := median(pv), median(cv)
			p1, p3 := quartiles(pv)
			c1, c3 := quartiles(cv)
			worse := (cm - pm) / math.Abs(pm)
			if higher {
				worse = -worse
			}
			allBetter := true
			for _, c := range cv {
				for _, p := range pv {
					allBetter = allBetter && better(c, p)
				}
			}
			m, gated := spec[name]
			gated = gated && m.Bound > 0 && g[len(g)-1] == '0'
			var verdict string
			switch {
			case float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-pm) > p3-p1 && better(cm, pm):
				verdict = "improved"
			case !gated:
				verdict = fmt.Sprintf("no gain shown (%+.1f%% worse)", 100*worse)
			case (p3-p1)/math.Abs(pm) > m.Bound && !allBetter:
				verdict = "unresolved (parent spread exceeds the bound)"
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSED (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*m.Bound)
			default:
				verdict = fmt.Sprintf("within bound (%+.1f%% worse)", 100*worse)
			}
			fmt.Printf("%-28s %-26s %26s %26s %3d/%-3d  %s\n", g, name,
				fmt.Sprintf("%s [%s,%s]", fmtFloat(pm), fmtFloat(p1), fmtFloat(p3)),
				fmt.Sprintf("%s [%s,%s]", fmtFloat(cm), fmtFloat(c1), fmtFloat(c3)), wins, pairs, verdict)
		}
	}
}

// ledgerMain prints a ledger entry: the median and quartiles of every
// metric per workload over the saved runs of the given directories,
// stamped with the machine and toolchain they ran on.
func ledgerMain(args []string) int {
	fs := flag.NewFlagSet("perfbench ledger", flag.ContinueOnError)
	commit := fs.String("commit", "", "commit of the program the runs measured")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *commit == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench ledger -commit <sha> <runs-dir>...")
		return 2
	}
	type stat struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Runs   int     `json:"runs"`
	}
	type group struct {
		Workload string          `json:"workload"`
		Trace    int             `json:"trace"`
		Seconds  int             `json:"seconds"`
		Seeds    []int64         `json:"seeds"`
		Metrics  map[string]stat `json:"metrics"`
	}
	entry := struct {
		Commit     string  `json:"commit"`
		Nproc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Go         string  `json:"go"`
		CPU        string  `json:"cpu"`
		Groups     []group `json:"groups"`
	}{Commit: *commit, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: cpuModel()}
	all := map[string][]savedRun{}
	for _, dir := range fs.Args() {
		groups, err := loadRuns(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench ledger:", err)
			return 1
		}
		for g, runs := range groups {
			all[g] = append(all[g], runs...)
		}
	}
	for _, g := range sortedGroups(all) {
		runs := all[g]
		sort.Slice(runs, func(i, j int) bool { return runs[i].seed < runs[j].seed })
		workload, trace, _ := strings.Cut(g, " trace=")
		e := group{Workload: workload, Seconds: runs[0].seconds, Metrics: map[string]stat{}}
		e.Trace, _ = strconv.Atoi(trace)
		for _, r := range runs {
			e.Seeds = append(e.Seeds, r.seed)
		}
		for _, name := range metricNames(runs) {
			vs := values(runs, name)
			q1, q3 := quartiles(vs)
			e.Metrics[name] = stat{Unit: runs[0].units[name], Median: median(vs), Q1: q1, Q3: q3, Runs: len(vs)}
		}
		entry.Groups = append(entry.Groups, e)
	}
	b, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ledger:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
