package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// steadiness runs each workload n times with seeds 1..n, each run a
// fresh process of this program exactly as a single run is invoked,
// and prints per metric the median, the quartiles and the spread
// (Q3-Q1)/median against the metric's bound in BENCHMARK.json.
func steadiness(only string, n, seconds int, banger, work string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("host: nproc %d, %s, GOMAXPROCS %d; %d runs of %ds per workload\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0), n, seconds)
	fmt.Printf("%-8s %-15s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		vals := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			res, err := runChild(w.name, seed, seconds, banger, work)
			if err != nil {
				return err
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(vals[m.Name])
			spread := (q3 - q1) / q2
			verdict := "steady" // below a third of the bound
			switch {
			case spread >= m.Bound:
				verdict = "NOISY"
			case spread >= m.Bound/3:
				verdict = "within bound"
			}
			if m.Name == "setup_s" {
				verdict += " (spread not gated)"
			}
			fmt.Printf("%-8s %-15s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n",
				w.name, m.Name, q1, q2, q3, spread, m.Bound, verdict)
		}
	}
	return nil
}

// runChild runs one untraced benchmark run in a child process and
// parses the result line it prints last.
func runChild(workload string, seed, seconds int, banger, work string) (*result, error) {
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--banger", banger, "--work", work)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d requests failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}
