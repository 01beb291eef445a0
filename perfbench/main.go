// Command perfbench is the repository's end-to-end benchmark. It runs
// `banger serve` (and, for the fleet workload, `banger worker`
// daemons) as separate processes, drives them with one closed-loop
// client over a seeded, pre-generated request stream, checks every
// answer, and prints the end-to-end metrics; with -trace 1 it also
// replays the stream in-process through each layer's public function
// and prints the per-layer ledger. README.md describes the workloads,
// the metrics and how to read the output.
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/serve"
)

// instances is how many times a run sets the system up and measures
// it, each instance for an equal share of the run's seconds. On a
// shared 2-vCPU host the same request stream runs several percent
// faster or slower from one few-second window to the next; the
// median over instances ignores one disturbed window, and set-up is
// measured once per instance.
const instances = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: predict, run or fleet")
	seed := flag.Int64("seed", 1, "seed of the generated request stream")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = print the per-layer ledger metrics instead of the end-to-end ones")
	banger := flag.String("banger", "", "path of the banger binary under test")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for process logs and span files")
	steady := flag.Int("steady", 0, "steadiness report: run every workload (or -workload) this many times, seeds 1..n")
	flag.Parse()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(*name, *steady, *seconds, *banger, *work); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *banger == "" || *seconds < 1 {
		fatal(fmt.Errorf("need -banger and -seconds >= 1"))
	}
	// Every phase of a run ends well inside this budget; a run that
	// hangs fails instead of never printing.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := bench(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *banger, *work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// phase is what the timed phases of all instances measured.
type phase struct {
	outs      []outcome
	elapsed   time.Duration // timed time, summed over instances
	setups    []float64     // seconds per instance
	rps       []float64     // completed requests per second, per instance
	cpuMS     []float64     // CPU ms per completed request of every process, per instance
	peakMB    []float64     // summed VmHWM per instance
	workerCPU time.Duration // worker daemons only, timed phases only
	cache     serve.CacheStats
	retries   int64
	latMS     []float64 // per request; a failure counts as the whole window
	failed    int
}

func bench(ctx context.Context, w *workload, seed int64, d time.Duration, traced bool, banger, work string) (*result, error) {
	share := d / instances
	st, err := w.generate(seed, instances, int(share.Seconds()*maxRate)+1)
	if err != nil {
		return nil, fmt.Errorf("generating %s stream: %w", w.name, err)
	}
	ph := &phase{}
	for _, seg := range st.timed {
		if err := ph.instance(ctx, w, st.prime, seg, share, banger, work); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: len(ph.outs), Failed: ph.failed, Correct: ph.failed == 0}
	sort.Float64s(ph.latMS)
	p50, err := percentile(ph.latMS, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(ph.latMS, 0.90)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d: %d attempted, %d succeeded, %d failed in %.2fs over %d system instances; latency percentiles over %d samples\n",
		w.name, seed, len(ph.outs), len(ph.outs)-ph.failed, ph.failed, ph.elapsed.Seconds(), instances, len(ph.latMS))
	fmt.Printf("per instance: throughput_rps %.1f, cpu_ms_per_req %.2f, peak_rss_mb %.1f, setup_s %.3f\n",
		ph.rps, ph.cpuMS, ph.peakMB, ph.setups)
	if !traced {
		res.Metrics = map[string]metric{
			"throughput_rps": {median(ph.rps), "1/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p90_ms": {p90, "ms"},
			"cpu_ms_per_req": {median(ph.cpuMS), "ms"},
			"peak_rss_mb":    {median(ph.peakMB), "MB"},
			"setup_s":        {median(ph.setups), "s"},
		}
		return res, nil
	}
	res.Metrics, err = ledger(ctx, w, st, ph, p50, d/2, banger, work)
	return res, err
}

// instance sets one system up, primes it, and runs the timed closed
// loop against it for d. Set-up time runs from launching the first
// process to the last prime answer.
func (ph *phase) instance(ctx context.Context, w *workload, primes, timed []request, d time.Duration, banger, work string) error {
	t0 := time.Now()
	sys, err := startSystem(ctx, banger, work, w.fleet)
	if err != nil {
		return err
	}
	defer sys.stop()
	if err := prime(ctx, sys.url, primes); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ph.setups = append(ph.setups, time.Since(t0).Seconds())

	c := newClient(sys.url)
	defer c.close()
	before, err := sys.stats(ctx)
	if err != nil {
		return err
	}
	u0, err := sample(sys.pids())
	if err != nil {
		return err
	}
	w0, err := sample(sys.pids()[1:])
	if err != nil {
		return err
	}
	outs, elapsed := c.loop(ctx, timed, d)
	w1, err := sample(sys.pids()[1:])
	if err != nil {
		return err
	}
	u1, err := sample(sys.pids())
	if err != nil {
		return err
	}
	after, err := sys.stats(ctx)
	if err != nil {
		return err
	}
	if elapsed < d {
		fmt.Fprintf(os.Stderr, "perfbench: the %d-request stream ran out after %v of %v\n", len(timed), elapsed, d)
	}
	ph.elapsed += elapsed
	ph.workerCPU += w1.cpu - w0.cpu
	ph.peakMB = append(ph.peakMB, float64(u1.hwmKiB)/1024)
	ph.cache.Hits += after.Cache.Hits - before.Cache.Hits
	ph.cache.Misses += after.Cache.Misses - before.Cache.Misses
	ph.cache.Evictions += after.Cache.Evictions - before.Cache.Evictions
	ph.retries += after.Exec.Retries - before.Exec.Retries

	window := ms(elapsed)
	failed := ph.failed
	for i := range outs {
		ph.outs = append(ph.outs, outs[i])
		if err := outs[i].verdict(timed[i].want); err != nil {
			if ph.failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %v\n", i, err)
			}
			ph.failed++
			ph.latMS = append(ph.latMS, window)
			continue
		}
		ph.latMS = append(ph.latMS, ms(outs[i].latency))
	}
	done := float64(len(outs) - (ph.failed - failed))
	ph.rps = append(ph.rps, done/elapsed.Seconds())
	ph.cpuMS = append(ph.cpuMS, ms(u1.cpu-u0.cpu)/max(done, 1))
	return nil
}

// prime sends the set-up requests, each checked by the oracle.
func prime(ctx context.Context, url string, reqs []request) error {
	c := newClient(url)
	defer c.close()
	for i := range reqs {
		o := c.send(ctx, &reqs[i])
		if err := o.verdict(reqs[i].want); err != nil {
			return fmt.Errorf("prime request %d: %w", i, err)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
