package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
)

// A workload is one seeded traffic mix for one closed-loop client.
// Every workload keeps to a single cost class (or a fixed mix of
// classes whose p50 and p90 each land inside one class), uses machines
// of at most 64 processors and is generated in full before the clock
// starts; README.md gives the measurements behind each rule.
type workload struct {
	name string
	// fleet executes runs on two `banger worker` daemons.
	fleet bool
	// generate returns the prime requests and segments timed
	// segments of at least n requests each.
	generate func(seed int64, segments, n int) (*stream, error)
}

// maxRate is the request rate a pre-generated segment can feed for its
// whole window: three to eight times what the workloads sustain on a
// 2-vCPU host. A faster system exhausts the segment and the run warns.
const maxRate = 300

var workloads = []*workload{
	{name: "predict", generate: genPredict},
	{name: "run", generate: func(seed int64, segments, n int) (*stream, error) {
		return genHeat(seed, segments, n, runSegments, runSteps)
	}},
	{name: "fleet", fleet: true, generate: func(seed int64, segments, n int) (*stream, error) {
		return genHeat(seed, segments, n, fleetSegments, fleetSteps)
	}},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want predict, run or fleet)", name)
}

// A stream is a workload's pre-generated traffic: prime requests are
// sent to every system instance during its set-up, and each instance's
// measured closed loop sends its own segment of timed requests.
type stream struct {
	prime []request
	timed [][]request
}

// A request is one submission and the answer it must get.
type request struct {
	path string
	// parts concatenate to the project document; a shape's design and
	// machine are marshalled once and shared by every request for it,
	// so only the per-request inputs are stored per request.
	parts [][]byte
	want  expect
}

func (r *request) body() []byte { return bytes.Join(r.parts, nil) }

func (r *request) size() int {
	n := 0
	for _, p := range r.parts {
		n += len(p)
	}
	return n
}

// expect is the oracle's answer for one request: the predicted
// schedule (predict) or the final rod temperatures (heat runs).
type expect struct {
	makespanUS int64
	pes        int
	speedup    float64

	heatSteps int
	heat      []float64
}

const (
	schedulePath = "/run?mode=schedule"
	runPath      = "/run"

	// predict: layered calculators of calcLayers x calcWidth tasks plus
	// a sink, predicted on hypercubes of 2..64 processors. Each
	// (design, machine) pair is asked predictAsks times in sweep
	// rounds, so exactly one ask in predictAsks misses the schedule
	// cache.
	calcLayers  = 12
	calcWidth   = 25
	predictDims = 6
	predictAsks = 4
	// primeDesigns is how many warm-up designs set-up predicts on every
	// machine size: 22*6 = 132 entries overfill the server's default
	// 128-entry schedule cache, so the timed phase starts from the
	// steady state of a long-running server (full cache, evicting)
	// rather than from an empty, growing heap.
	primeDesigns = 22

	// heat: the stencil on a ring of one processor per rod segment.
	runSegments   = 16
	runSteps      = 8
	fleetSegments = 8
	fleetSteps    = 8
	// heatPrimes runs the shape during set-up: the first schedules it
	// (the one cache miss of the run), the rest warm the heap.
	heatPrimes = 3
)

// genPredict builds the predict stream: per design, predictAsks sweep
// rounds over hypercube dimensions 1..predictDims, fresh input data on
// every ask. Segments hold whole designs, so every pair's first ask,
// and only that one, misses a fresh server's cache. The expected
// prediction of every pair is computed here, before the clock, by
// scheduling the decoded document in-process exactly as the server
// does.
func genPredict(seed int64, segments, n int) (*stream, error) {
	machines := make([][]byte, predictDims)
	for d := range machines {
		m, err := hypercube(d + 1)
		if err != nil {
			return nil, err
		}
		if machines[d], err = json.Marshal(m); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := &stream{}
	var heads [][]byte // per design, in stream order: prime, then segments
	for d := 0; d < primeDesigns; d++ {
		head, reqs := predictDesign(rng, fmt.Sprintf("warm%d", d), 1, machines)
		heads = append(heads, head)
		st.prime = append(st.prime, reqs...)
	}
	d := 0
	for s := 0; s < segments; s++ {
		var seg []request
		for ; len(seg) < n; d++ {
			head, reqs := predictDesign(rng, fmt.Sprintf("calc%d", d), predictAsks, machines)
			heads = append(heads, head)
			seg = append(seg, reqs...)
		}
		st.timed = append(st.timed, seg)
	}

	// Scheduling every pair is most of the generation time; spread the
	// designs over the cores.
	wants := make([][]expect, len(heads))
	errs := make([]error, len(heads))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(heads); i = int(next.Add(1)) - 1 {
				wants[i], errs[i] = predictions(heads[i], machines)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	i, k := 0, 0 // design index, request index within it
	for _, reqs := range append([][]request{st.prime}, st.timed...) {
		for j := range reqs {
			if k == len(machines)*asksOf(i) {
				i, k = i+1, 0
			}
			reqs[j].want = wants[i][k%len(machines)]
			k++
		}
	}
	return st, nil
}

// asksOf is how many sweep rounds design i (in stream order) asks.
func asksOf(i int) int {
	if i < primeDesigns {
		return 1
	}
	return predictAsks
}

// predictDesign generates one design and its requests, asks rounds
// over every machine, and returns the document head they share.
func predictDesign(rng *rand.Rand, name string, asks int, machines [][]byte) ([]byte, []request) {
	design, err := json.Marshal(calcDesign(rng))
	if err != nil {
		panic(err) // a generated graph always marshals
	}
	head := append([]byte(fmt.Sprintf(`{"name":%q,"design":`, name)), design...)
	head = append(head, `,"machine":`...)
	var reqs []request
	for a := 0; a < asks; a++ {
		for _, m := range machines {
			x := pits.Num(float64(rng.Intn(2000)) / 8)
			reqs = append(reqs, request{path: schedulePath,
				parts: [][]byte{head, m, inputsTail(pits.Env{"x": x})}})
		}
	}
	return head, reqs
}

// predictions schedules a design on every machine the way the server
// does: from the decoded document, not the generator's in-memory
// graph. The design is decoded and flattened once; each machine is
// decoded on its own.
func predictions(head []byte, machines [][]byte) ([]expect, error) {
	var p project.Project
	doc := bytes.Join([][]byte{head, machines[0], inputsTail(pits.Env{"x": pits.Num(1)})}, nil)
	if err := json.Unmarshal(doc, &p); err != nil {
		return nil, err
	}
	env, err := core.Open(&p)
	if err != nil {
		return nil, err
	}
	wants := make([]expect, len(machines))
	for d := range machines {
		var m machine.Machine
		if err := json.Unmarshal(machines[d], &m); err != nil {
			return nil, err
		}
		sc, err := env.ScheduleOnWorkers("mh", &m, 0)
		if err != nil {
			return nil, err
		}
		wants[d] = expect{makespanUS: int64(sc.Makespan()), pes: sc.UsedPEs(), speedup: sc.Speedup()}
	}
	return wants, nil
}

// calcDesign is a layered calculator: every task of a layer combines
// two neighbours of the previous layer, and a sink sums the last
// layer. The shape is fixed so every seed costs the same to schedule;
// task work, arc words and routine constants are drawn from rng, so
// every design has its own fingerprint.
func calcDesign(rng *rand.Rand) *graph.Graph {
	g := graph.New("layered-calc")
	g.MustAddStorage("IN", "x")
	id := func(l, i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("t%d_%d", l, i)) }
	v := func(l, i int) string { return fmt.Sprintf("v%d_%d", l, i) }
	for l := 0; l < calcLayers; l++ {
		for i := 0; i < calcWidth; i++ {
			n := g.MustAddTask(id(l, i), string(id(l, i)), int64(10+rng.Intn(20)))
			if l == 0 {
				n.Routine = fmt.Sprintf("%s = x + %d", v(l, i), rng.Intn(100))
				g.MustConnect("IN", id(l, i), "x", 1)
				continue
			}
			r := (i + 1) % calcWidth
			n.Routine = fmt.Sprintf("%s = %s + %s * %d", v(l, i), v(l-1, i), v(l-1, r), 1+rng.Intn(3))
			g.MustConnect(id(l-1, i), id(l, i), v(l-1, i), int64(1+rng.Intn(4)))
			g.MustConnect(id(l-1, r), id(l, i), v(l-1, r), int64(1+rng.Intn(4)))
		}
	}
	snk := g.MustAddTask("snk", "sink", 20)
	src := "out = 0\n"
	for i := 0; i < calcWidth; i++ {
		g.MustConnect(id(calcLayers-1, i), "snk", v(calcLayers-1, i), 1)
		src += fmt.Sprintf("out = out + %s\n", v(calcLayers-1, i))
	}
	snk.Routine = src
	g.MustAddStorage("OUT", "out")
	g.MustConnect("snk", "OUT", "out", 1)
	return g
}

// genHeat builds a heat stream: one shape (segments x steps on a
// ring of segments processors), fresh seeded initial temperatures on
// every request, each checked against project.HeatReference.
func genHeat(seed int64, parts, n, segments, steps int) (*stream, error) {
	p, err := project.HeatSized(segments, steps)
	if err != nil {
		return nil, err
	}
	alpha := p.Inputs["alpha"]
	p.Inputs = nil
	doc, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	head := doc[:len(doc)-1] // reopen the document for the inputs tail

	rng := rand.New(rand.NewSource(seed))
	next := func() request {
		in := pits.Env{"alpha": alpha}
		for s := 0; s < segments; s++ {
			vec := make(pits.Vec, heatCellsPerSegment)
			for i := range vec {
				vec[i] = float64(rng.Intn(100000)) / 1000
			}
			in[fmt.Sprintf("init%d", s)] = vec
		}
		return request{path: runPath,
			parts: [][]byte{head, inputsTail(in)},
			want: expect{heatSteps: steps,
				heat: project.HeatReference(segments, steps, in)}}
	}
	st := &stream{}
	for i := 0; i < heatPrimes; i++ {
		st.prime = append(st.prime, next())
	}
	for k := 0; k < parts; k++ {
		seg := make([]request, n)
		for i := range seg {
			seg[i] = next()
		}
		st.timed = append(st.timed, seg)
	}
	return st, nil
}

// heatCellsPerSegment is project.HeatSized's cells per rod segment.
const heatCellsPerSegment = 8

// inputsTail renders `,"inputs":{...}}`, the end of a project document
// whose head stops after the machine.
func inputsTail(in pits.Env) []byte {
	raw := make(map[string]any, len(in))
	for k, v := range in {
		switch t := v.(type) {
		case pits.Num:
			raw[k] = float64(t)
		case pits.Vec:
			raw[k] = []float64(t)
		}
	}
	b, err := json.Marshal(raw)
	if err != nil {
		panic(err) // numbers and vectors always marshal
	}
	return append(append([]byte(`,"inputs":`), b...), '}')
}

func hypercube(dim int) (*machine.Machine, error) {
	topo, err := machine.Hypercube(dim)
	if err != nil {
		return nil, err
	}
	return machine.New(topo.Name, topo, machine.DefaultParams())
}
