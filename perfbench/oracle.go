package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// heatTol bounds |got - want| / max(1, |want|) per rod cell. The
// server renders values with 10 significant digits, so a correct
// answer is off by at most 5e-10 relative; anything past 1e-8 is a
// wrong answer, not rounding.
const heatTol = 1e-8

// check is the oracle: it decodes one response body and compares it
// with the answer computed while the stream was generated.
func check(body []byte, want expect) error {
	var resp serve.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if want.heat == nil {
		if resp.MakespanUS != want.makespanUS || resp.PEs != want.pes || resp.Speedup != want.speedup {
			return fmt.Errorf("prediction {makespan %dus, %d PEs, speedup %v}, want {%dus, %d PEs, %v}",
				resp.MakespanUS, resp.PEs, resp.Speedup, want.makespanUS, want.pes, want.speedup)
		}
		return nil
	}
	segments := len(want.heat) / heatCellsPerSegment
	for s := 0; s < segments; s++ {
		name := fmt.Sprintf("seg%d_%d", s, want.heatSteps-1)
		got, err := parseVec(resp.Outputs[name])
		if err != nil {
			return fmt.Errorf("output %s: %w", name, err)
		}
		if len(got) != heatCellsPerSegment {
			return fmt.Errorf("output %s has %d cells, want %d", name, len(got), heatCellsPerSegment)
		}
		for i, g := range got {
			w := want.heat[s*heatCellsPerSegment+i]
			if math.Abs(g-w) > heatTol*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("output %s cell %d = %v, want %v", name, i, g, w)
			}
		}
	}
	return nil
}

// parseVec reads a vector as the server renders it: "[1, 2.5, 3]".
func parseVec(s string) ([]float64, error) {
	inner, open := strings.CutPrefix(s, "[")
	inner, closed := strings.CutSuffix(inner, "]")
	if !open || !closed {
		return nil, fmt.Errorf("%q is not a vector", s)
	}
	var out []float64
	for _, f := range strings.Split(inner, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}
