package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"repro/internal/pits"
	"repro/internal/serve"
)

// TestStreamDeterministic: the same seed gives byte-identical request
// streams, oracle answers included; another seed gives other inputs.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.generate(7, 2, 30)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.generate(7, 2, 30)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.generate(8, 2, 30)
			if err != nil {
				t.Fatal(err)
			}
			flat := func(s *stream) []request {
				out := append([]request(nil), s.prime...)
				for _, seg := range s.timed {
					out = append(out, seg...)
				}
				return out
			}
			ra, rb, rc := flat(a), flat(b), flat(c)
			if len(ra) != len(rb) || len(ra) < 60 {
				t.Fatalf("stream lengths %d and %d", len(ra), len(rb))
			}
			differs := false
			for i := range ra {
				if ra[i].path != rb[i].path || !bytes.Equal(ra[i].body(), rb[i].body()) ||
					!reflect.DeepEqual(ra[i].want, rb[i].want) {
					t.Fatalf("request %d differs between two generations of seed 7", i)
				}
				if i < len(rc) && !bytes.Equal(ra[i].body(), rc[i].body()) {
					differs = true
				}
				if !json.Valid(ra[i].body()) {
					t.Fatalf("request %d is not a JSON document", i)
				}
			}
			if !differs {
				t.Fatal("seeds 7 and 8 generated the same stream")
			}
		})
	}
}

// TestPredictHitShare: on a fresh cache exactly one ask in predictAsks
// misses, segment by segment.
func TestPredictHitShare(t *testing.T) {
	st, err := genPredict(3, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range st.timed {
		seen := map[string]bool{}
		misses := 0
		for i := range seg {
			k := string(seg[i].parts[0]) + string(seg[i].parts[1])
			if !seen[k] {
				seen[k] = true
				misses++
			}
		}
		if misses*predictAsks != len(seg) {
			t.Fatalf("%d misses in %d requests, want one in %d", misses, len(seg), predictAsks)
		}
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, err := percentile(samples(100), 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := percentile(samples(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it but was accepted")
	}
	if v, err := percentile(samples(20), 0.50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(samples(19), 0.50); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it but was accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to values printed by
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 2, 9, 4}, [3]float64{1.5, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestOracle: the in-process serve path's answer passes, and a
// perturbed rod temperature or a wrong makespan is rejected.
func TestOracle(t *testing.T) {
	ctx := context.Background()
	answer := func(w *workload, st *stream) (serve.RunResponse, expect) {
		rp := newReplayer(w, nil)
		req := st.timed[0][0]
		out, err := rp.do(ctx, nil, req.body())
		if err != nil {
			t.Fatal(err)
		}
		if err := check(out, req.want); err != nil {
			t.Fatalf("correct answer rejected: %v", err)
		}
		var resp serve.RunResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		return resp, req.want
	}
	reject := func(what string, resp serve.RunResponse, want expect) {
		t.Helper()
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if check(b, want) == nil {
			t.Errorf("oracle accepted %s", what)
		}
	}

	run, _ := workloadByName("run")
	st, err := run.generate(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, want := answer(run, st)
	name := "seg3_7"
	cells, err := parseVec(resp.Outputs[name])
	if err != nil {
		t.Fatal(err)
	}
	cells[2] *= 1 + 1e-6
	bad := resp
	bad.Outputs = map[string]string{}
	for k, v := range resp.Outputs {
		bad.Outputs[k] = v
	}
	bad.Outputs[name] = pits.Vec(cells).String()
	reject("a heat vector perturbed by 1e-6", bad, want)
	delete(bad.Outputs, name)
	reject("a missing heat output", bad, want)

	pred, _ := workloadByName("predict")
	ps, err := genPredict(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	presp, pwant := answer(pred, ps)
	presp.MakespanUS++
	reject("a makespan off by 1us", presp, pwant)
}

// TestSampleSumsProcesses: the sampler adds CPU and peak memory over
// every process it is given.
func TestSampleSumsProcesses(t *testing.T) {
	var pids []int
	for i := 0; i < 2; i++ {
		cmd := exec.Command("sleep", "30")
		if err := cmd.Start(); err != nil {
			t.Skip("no sleep binary:", err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		pids = append(pids, cmd.Process.Pid)
	}
	// Compare only once both have exec'd and gone to sleep, so their
	// peak memory no longer moves between the reads.
	for _, pid := range pids {
		for {
			stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(stat, []byte("(sleep) S")) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	a, err := sample(pids[:1])
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample(pids[1:])
	if err != nil {
		t.Fatal(err)
	}
	both, err := sample(pids)
	if err != nil {
		t.Fatal(err)
	}
	if a.hwmKiB <= 0 || both.hwmKiB != a.hwmKiB+b.hwmKiB || both.cpu != a.cpu+b.cpu {
		t.Fatalf("sample(both) = %+v, want the sum of %+v and %+v", both, a, b)
	}

	self := []int{os.Getpid()}
	before, err := sample(self)
	if err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	after, err := sample(self)
	if err != nil {
		t.Fatal(err)
	}
	if after.cpu-before.cpu < 5*clockTick {
		t.Fatalf("100ms of spinning read as %v of CPU (x=%v)", after.cpu-before.cpu, x)
	}
}
