package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The traced run replays a workload's stream in this process, calling
// each layer's public function in the order internal/serve does and
// timing every call from outside. Spans never overlap (one request at
// a time, one layer at a time), so each span's heap-allocation delta
// belongs to its layer alone.

// span is one timed call. Parent is the index of the enclosing span
// (-1 for a root); Req is the request's index in the stream, negative
// for set-up (prime) requests.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Alloc   uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory. A nil tracer records nothing, which
// is how the untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	req    int
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Alloc: t.heapAllocs()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].StartNS = time.Since(t.origin).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	s := &t.spans[id]
	s.EndNS = end
	s.Alloc = t.heapAllocs() - s.Alloc
	t.open = t.open[:len(t.open)-1]
}

// Span names: the layers of a serve request, plus the reference calls
// that are not on the request path.
const (
	spRequest   = "request"
	spDecode    = "project.decode"
	spOpen      = "core.open"
	spFinger    = "sched.fingerprint"
	spSchedule  = "sched.schedule"
	spSession   = "exec.session_build"
	spWait      = "exec.wait"
	spMerge     = "exec.merge"
	spSort      = "trace.sort"
	spSummarize = "trace.summarize"
	spFleetRun  = "wire.fleet_run"
	spEncode    = "serve.encode"
	// Reference calls, outside the request: the fleet request's
	// schedule and inputs run in-process (wire.overhead_ms), and the
	// sequential interpreter over the same inputs (pits.rehearse_ms).
	spInproc   = "reference.inproc_run"
	spRehearse = "pits.rehearse"
)

// cacheCap mirrors the server's default schedule-cache capacity, so
// the replay sees the same hits and misses as the server did.
const cacheCap = 128

type cached struct {
	flat *graph.Flat
	sc   *sched.Schedule
}

// replayer runs requests through the layers the way internal/serve's
// handler does.
type replayer struct {
	w     *workload
	fleet *wire.Fleet
	// stats is shared by every run, as the server shares its counters.
	stats *exec.Stats
	cache map[string]cached
	order []string // insertion order, oldest first
	// retries counts retransmissions recorded in the replayed runs'
	// traces (the fleet's daemons keep their own counters).
	retries int64
}

func newReplayer(w *workload, fleet *wire.Fleet) *replayer {
	return &replayer{w: w, fleet: fleet, stats: &exec.Stats{}, cache: map[string]cached{}}
}

// do serves one request and returns the encoded response.
func (r *replayer) do(ctx context.Context, t *tracer, body []byte) ([]byte, error) {
	root := t.begin(spRequest)
	defer t.end(root)

	sp := t.begin(spDecode)
	var p project.Project
	err := json.Unmarshal(body, &p)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spOpen)
	env, err := core.Open(&p)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spFinger)
	key := sched.Fingerprint(env.Flat, p.Machine, "mh")
	t.end(sp)
	e, hit := r.cache[key]
	if !hit {
		sp = t.begin(spSchedule)
		sc, err := env.ScheduleOnWorkers("mh", p.Machine, 0)
		if err == nil {
			sc.Finalize()
			sc.Machine.Topo.Precompute()
		}
		t.end(sp)
		if err != nil {
			return nil, err
		}
		e = cached{flat: env.Flat, sc: sc}
		if len(r.order) == cacheCap {
			delete(r.cache, r.order[0])
			r.order = r.order[1:]
		}
		r.cache[key] = e
		r.order = append(r.order, key)
	}
	resp := serve.RunResponse{Name: p.Name, Algorithm: "mh", Cache: "miss"}
	if hit {
		resp.Cache = "hit"
	}

	if r.w.name == "predict" {
		sp = t.begin(spEncode)
		msgs, _ := e.sc.CommVolume()
		resp.Msgs, resp.MakespanUS = int64(msgs), int64(e.sc.Makespan())
		resp.PEs, resp.Speedup = e.sc.UsedPEs(), e.sc.Speedup()
		out, err := encode(resp)
		t.end(sp)
		return out, err
	}

	runner := &exec.Runner{Inputs: p.Inputs, Stats: r.stats}
	var res *exec.Result
	if r.fleet != nil {
		sp = t.begin(spFleetRun)
		res, err = r.fleet.Run(ctx, runner, e.sc, e.flat)
		t.end(sp)
	} else {
		res, err = runInproc(t, runner, e)
	}
	if err != nil {
		return nil, err
	}
	sp = t.begin(spSummarize)
	st, err := res.Trace.Summarize(e.sc.Machine.NumPE())
	t.end(sp)
	if err == nil {
		resp.Tasks, resp.Msgs = int64(st.TasksRun), int64(st.Msgs)
		r.retries += int64(st.Retries)
	}
	sp = t.begin(spEncode)
	resp.ElapsedUS, resp.Printed = res.Elapsed.Microseconds(), res.Printed
	resp.Outputs = make(map[string]string, len(res.Outputs))
	for k, v := range res.Outputs {
		resp.Outputs[k] = fmt.Sprintf("%s", v)
	}
	out, err := encode(resp)
	t.end(sp)
	return out, err
}

// runInproc is exec.Runner.RunContext split at its layer boundaries.
func runInproc(t *tracer, runner *exec.Runner, e cached) (*exec.Result, error) {
	sp := t.begin(spSession)
	ses, err := runner.StartSession(e.sc, e.flat, nil, nil)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spWait)
	part, err := ses.Wait()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spMerge)
	outputs, printed, err := exec.MergePartials(part)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	res := &exec.Result{Outputs: outputs, Printed: printed,
		Trace:   &trace.Trace{Label: "run:" + e.sc.Algorithm, Events: part.Events},
		Elapsed: ses.Elapsed()}
	sp = t.begin(spSort)
	res.Trace.Sort()
	t.end(sp)
	return res, nil
}

// reference makes the calls that explain a request without being part
// of it: the sequential interpreter over the request's inputs and, for
// fleet requests, the same schedule run in-process.
func (r *replayer) reference(t *tracer, body []byte) error {
	if r.w.name == "predict" {
		return nil
	}
	var p project.Project
	if err := json.Unmarshal(body, &p); err != nil {
		return err
	}
	env, err := core.Open(&p)
	if err != nil {
		return err
	}
	sp := t.begin(spRehearse)
	_, err = env.Rehearse()
	t.end(sp)
	if err != nil || r.fleet == nil {
		return err
	}
	e, ok := r.cache[sched.Fingerprint(env.Flat, p.Machine, "mh")]
	if !ok {
		return fmt.Errorf("reference run: schedule not cached")
	}
	root := t.begin(spInproc)
	_, err = runInproc(t, &exec.Runner{Inputs: p.Inputs}, e)
	t.end(root)
	return err
}

func encode(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// replay serves the prime requests and then timed requests until d
// has passed or limit requests are done (limit < 0: no limit), and
// returns each timed request's wall time in ms. The reference calls
// run in both the traced and the untraced replay, so the two differ
// only by the span recording.
func (r *replayer) replay(ctx context.Context, t *tracer, st *stream, d time.Duration, limit int) ([]float64, error) {
	serveOne := func(req *request, idx int) (time.Duration, error) {
		body := req.body()
		if t != nil {
			t.req = idx
		}
		t0 := time.Now()
		out, err := r.do(ctx, t, body)
		took := time.Since(t0)
		if err == nil {
			err = check(out, req.want)
		}
		if err == nil {
			err = r.reference(t, body)
		}
		return took, err
	}
	for i := range st.prime {
		if _, err := serveOne(&st.prime[i], -1-i); err != nil {
			return nil, fmt.Errorf("replaying prime request %d: %w", i, err)
		}
	}
	var walls []float64
	deadline := time.Now().Add(d)
	timed := slices.Concat(st.timed...)
	for i := range timed {
		if i == limit || (limit < 0 && !time.Now().Before(deadline)) {
			break
		}
		took, err := serveOne(&timed[i], i)
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		walls = append(walls, ms(took))
	}
	return walls, nil
}

// ledger runs the traced replay, then the untraced replay of the same
// requests, and turns the spans into the per-layer metrics. p50 is the
// untraced HTTP median of the timed phase ph.
func ledger(ctx context.Context, w *workload, st *stream, ph *phase, p50 float64, d time.Duration, banger, work string) (map[string]metric, error) {
	var fl *wire.Fleet
	if w.fleet {
		procs, addrs, err := startWorkers(ctx, banger, work, fleetWorkers)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, p := range procs {
				p.stop()
			}
		}()
		// The same fleet settings `banger serve -fleet` ships with.
		fl = &wire.Fleet{Transport: wire.TCP(), Control: "127.0.0.1:0", Seed: addrs, Mesh: true,
			HeartbeatEvery: 250 * time.Millisecond, PeerTimeout: 3 * time.Second}
		if err := fl.Start(); err != nil {
			return nil, err
		}
		defer fl.Close()
	}

	t := newTracer()
	rp := newReplayer(w, fl)
	traced, err := rp.replay(ctx, t, st, d, -1)
	if err != nil {
		return nil, err
	}
	plain, err := newReplayer(w, fl).replay(ctx, nil, st, d, len(traced))
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(work, fmt.Sprintf("spans-%s.jsonl", w.name)), t.spans); err != nil {
		return nil, err
	}

	lay := summarize(t.spans)
	printLedger(w.name, lay, len(traced))
	overhead := 100 * (median(traced) - median(plain)) / median(plain)
	fmt.Printf("tracing overhead: traced request median %.3f ms vs untraced %.3f ms over %d requests (%+.1f%%)\n",
		median(traced), median(plain), len(traced), overhead)

	done := float64(len(ph.outs) - ph.failed)
	hits, misses := ph.cache.Hits, ph.cache.Misses
	m := map[string]metric{
		"project.decode_ms":           {lay.ms(spDecode), "ms"},
		"project.decode_alloc_mb":     {lay.mb(spDecode), "MB"},
		"core.open_ms":                {lay.ms(spOpen), "ms"},
		"core.open_alloc_mb":          {lay.mb(spOpen), "MB"},
		"sched.fingerprint_ms":        {lay.ms(spFinger), "ms"},
		"sched.schedule_ms":           {lay.ms(spSchedule), "ms"},
		"sched.schedule_alloc_mb":     {lay.mb(spSchedule), "MB"},
		"sched.schedules":             {float64(lay[spSchedule].timed), "count"},
		"serve.cache_hit_ratio":       {float64(hits) / float64(max(hits+misses, 1)), "ratio"},
		"serve.cache_evictions":       {float64(ph.cache.Evictions), "count"},
		"serve.encode_ms":             {lay.ms(spEncode), "ms"},
		"serve.residual_ms":           {p50 - median(lay.layerSums()), "ms"},
		"exec.session_build_ms":       {lay.ms(spSession), "ms"},
		"exec.session_build_alloc_mb": {lay.mb(spSession), "MB"},
		"exec.wait_ms":                {lay.ms(spWait), "ms"},
		"exec.merge_ms":               {lay.ms(spMerge), "ms"},
		"exec.msgs_per_req":           {0, "count"},
		"exec.retries":                {float64(ph.retries + rp.retries), "count"},
		"pits.rehearse_ms":            {lay.ms(spRehearse), "ms"},
		"trace.sort_ms":               {lay.ms(spSort), "ms"},
		"trace.summarize_ms":          {lay.ms(spSummarize), "ms"},
		"wire.fleet_run_ms":           {lay.ms(spFleetRun), "ms"},
		"wire.overhead_ms":            {0, "ms"},
		"wire.worker_cpu_ms_per_req":  {ms(ph.workerCPU) / max(done, 1), "ms"},
		"wire.sends_per_flush":        {0, "ratio"},
		"wire.schedule_bytes":         {0, "bytes"},
		"ledger.overhead_pct":         {overhead, "%"},
	}
	if w.name != "predict" {
		m["exec.msgs_per_req"] = metric{respMsgs(ph.outs), "count"}
	}
	if w.fleet {
		m["wire.overhead_ms"] = metric{lay.ms(spFleetRun) - lay.ms(spInproc), "ms"}
		e := rp.cache[rp.order[0]]
		b, err := wire.EncodeSchedule(e.sc)
		if err != nil {
			return nil, err
		}
		m["wire.schedule_bytes"] = metric{float64(len(b)), "bytes"}
		spf, err := sendsPerFlush(e, st.timed[0][0], len(fl.Seed))
		if err != nil {
			return nil, err
		}
		m["wire.sends_per_flush"] = metric{spf, "ratio"}
		fmt.Printf("computed, not measured on the daemons: wire.schedule_bytes = EncodeSchedule size of the start bundle's schedule (%d B); wire.sends_per_flush = %.3f RemoteSends per RemoteFlush of in-process sessions split as sched.Place splits the fleet\n",
			len(b), spf)
	}
	return m, nil
}

// respMsgs is the mean message count the server reported per request.
func respMsgs(outs []outcome) float64 {
	var sum, n float64
	for _, o := range outs {
		var r serve.RunResponse
		if o.err == nil && json.Unmarshal(o.body, &r) == nil {
			sum += float64(r.Msgs)
			n++
		}
	}
	return sum / max(n, 1)
}

// layer aggregates one span name.
type layer struct {
	timed      int       // spans of timed requests
	dur, self  []float64 // ms, timed requests (all spans for schedule)
	alloc      []float64 // MB
	sharedSelf float64   // total self time inside timed request spans, ms
}

type layers map[string]*layer

// summarize folds spans into per-name statistics. Request-path layers
// count timed requests only; sched.schedule counts every miss, set-up
// included, since on run and fleet the only miss is in set-up.
func summarize(spans []span) layers {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	inRequest := func(i int) bool {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return spans[i].Name == spRequest
	}
	lay := layers{}
	for i, s := range spans {
		if s.Req < 0 && s.Name != spSchedule {
			continue
		}
		l := lay[s.Name]
		if l == nil {
			l = &layer{}
			lay[s.Name] = l
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		l.dur = append(l.dur, d)
		l.self = append(l.self, d-child[i])
		l.alloc = append(l.alloc, float64(s.Alloc)/(1<<20))
		if s.Req >= 0 {
			l.timed++
			if inRequest(i) {
				l.sharedSelf += d - child[i]
			}
		}
	}
	return lay
}

func (l layers) ms(name string) float64 {
	if x := l[name]; x != nil {
		return median(x.dur)
	}
	return 0
}

func (l layers) mb(name string) float64 {
	if x := l[name]; x != nil {
		return median(x.alloc)
	}
	return 0
}

// layerSums is, per timed request, the time its layers account for:
// the request span minus its own self time.
func (l layers) layerSums() []float64 {
	r := l[spRequest]
	if r == nil {
		return nil
	}
	sums := make([]float64, len(r.dur))
	for i := range r.dur {
		sums[i] = r.dur[i] - r.self[i]
	}
	return sums
}

func printLedger(workload string, lay layers, n int) {
	total := 0.0
	if r := lay[spRequest]; r != nil {
		for _, d := range r.dur {
			total += d
		}
	}
	names := make([]string, 0, len(lay))
	for k := range lay {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("traced replay of %s: %d timed requests (set-up requests excluded except sched.schedule)\n", workload, n)
	fmt.Printf("%-22s %7s %10s %10s %10s %8s\n", "span", "count", "median_ms", "self_ms", "alloc_MB", "share")
	for _, k := range names {
		l := lay[k]
		share := "-"
		if k != spRequest && l.sharedSelf > 0 && total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*l.sharedSelf/total)
		}
		fmt.Printf("%-22s %7d %10.3f %10.3f %10.3f %8s\n", k, len(l.dur), median(l.dur), median(l.self), median(l.alloc), share)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loopback joins in-process sessions that each host one worker's share
// of the machine, delivering cross-session messages directly. It
// stands in for the daemons' wire plane to count what the runner hands
// a coalescing plane: RemoteSends per RemoteFlush.
type loopback struct {
	ready   chan struct{}
	peerOf  []int
	workers int
	ses     []*exec.Session
	idle    atomic.Int32
}

type loopPlane struct{ lb *loopback }

func (p loopPlane) DeliverRemote(m exec.RemoteMsg) error {
	<-p.lb.ready
	return p.lb.ses[p.lb.peerOf[m.ToPE]].Deliver(m)
}

func (p loopPlane) FlushRemote() {}

func (p loopPlane) LocalIdle() {
	// Every session idle means every slot ran: finish them all, as the
	// coordinator does on the last TIdle. FinishRun must not run on the
	// session's own goroutine, which is calling us.
	if int(p.lb.idle.Add(1)) == p.lb.workers {
		go func() {
			<-p.lb.ready
			for _, s := range p.lb.ses {
				s.FinishRun()
			}
		}()
	}
}

func (p loopPlane) LocalCrash(int) {}

// sendsPerFlush runs the fleet's schedule as workers in-process
// sessions, split by sched.Place as the coordinator splits it, and
// returns the achieved batching factor.
func sendsPerFlush(e cached, req request, workers int) (float64, error) {
	var p project.Project
	if err := json.Unmarshal(req.body(), &p); err != nil {
		return 0, err
	}
	lb := &loopback{ready: make(chan struct{}), peerOf: sched.Place(e.sc, workers), workers: workers}
	for w := 0; w < workers; w++ {
		hosted := make([]bool, len(lb.peerOf))
		for pe, owner := range lb.peerOf {
			hosted[pe] = owner == w
		}
		s, err := (&exec.Runner{Inputs: p.Inputs}).StartSession(e.sc, e.flat, hosted, loopPlane{lb})
		if err != nil {
			return 0, err
		}
		lb.ses = append(lb.ses, s)
	}
	close(lb.ready)
	var sends, flushes int64
	for _, s := range lb.ses {
		if _, err := s.Wait(); err != nil {
			return 0, err
		}
		st := s.Stats()
		sends, flushes = sends+st.RemoteSends, flushes+st.RemoteFlushes
	}
	return float64(sends) / float64(max(flushes, 1)), nil
}
