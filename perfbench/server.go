package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one messi-serve process the benchmark started.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	done   chan error
}

var listeningRE = regexp.MustCompile(`listening addr=(\S+)`)

// startServer execs messi-serve with args plus a loopback listener,
// logging to logPath, and returns once GET /readyz answers 200 together
// with the time from exec until then.
func startServer(bin, logPath string, args ...string) (*server, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start messi-serve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1), client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	go func() { s.done <- cmd.Wait() }()
	deadline := start.Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("messi-serve not ready after 2 minutes (log %s)", logPath)
		}
		select {
		case err := <-s.done:
			s.done <- err
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("messi-serve exited during boot: %v: %s", err, lastLines(string(log), 5))
		default:
		}
		if s.base == "" {
			if log, err := os.ReadFile(logPath); err == nil {
				if m := listeningRE.FindSubmatch(log); m != nil {
					s.base = "http://" + string(m[1])
				}
			}
		}
		if s.base != "" {
			if resp, err := s.client.Get(s.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the process (no graceful snapshot) and waits for it to end.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // it may have exited already; Wait reports that
	err := <-s.done
	s.done <- err
	s.client.CloseIdleConnections()
}

// post sends one JSON body and returns the status and response body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (s *server) scrape() (prom, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

// stats reads GET /v1/stats.
func (s *server) stats() (map[string]any, error) {
	b, err := s.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(b, &m)
}

// peakRSSMiB reads the process's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

func lastLines(s string, n int) string {
	ls := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(ls[max(0, len(ls)-n):], " | ")
}

// appendVec writes v as a JSON array of shortest float32 literals, which
// the server parses back to the identical float32 values.
func appendVec(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, ']')
}

// wireMatch and wireResult are the JSON shapes of messi-serve answers.
type wireMatch struct {
	Position int     `json:"position"`
	Distance float64 `json:"distance"`
}

type wireResult struct {
	Matches []wireMatch `json:"matches"`
	Exact   bool        `json:"exact"`
	Trace   *struct {
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		Phases         []struct {
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
		Counters struct {
			NodesVisited   int64 `json:"nodes_visited"`
			LowerBounds    int64 `json:"lower_bounds"`
			RealDistances  int64 `json:"real_distances"`
			LeavesInserted int64 `json:"leaves_inserted"`
			LeavesPruned   int64 `json:"leaves_pruned"`
			BSFUpdates     int64 `json:"bsf_updates"`
		} `json:"counters"`
	} `json:"trace"`
	FirstPosition int `json:"first_position"`
	Count         int `json:"count"`
}
