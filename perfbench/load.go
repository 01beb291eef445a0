package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the single closed-loop client: one keep-alive connection,
// the next request sent only once the previous answer is read.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome is one timed request as the client saw it. The oracle runs
// after the clock stops, so checking adds nothing to the loop.
type outcome struct {
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// send posts one request and reads the whole answer.
func (c *client) send(ctx context.Context, r *request) outcome {
	readers := make([]io.Reader, len(r.parts))
	for i, p := range r.parts {
		readers[i] = bytes.NewReader(p)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, io.MultiReader(readers...))
	if err != nil {
		return outcome{err: err}
	}
	req.ContentLength = int64(r.size())
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{latency: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{latency: time.Since(t0), status: resp.StatusCode, body: body, err: err}
}

// verdict applies the oracle: a transport error, a non-2xx status or
// a wrong answer fails the request.
func (o *outcome) verdict(want expect) error {
	switch {
	case o.err != nil:
		return o.err
	case o.status/100 != 2:
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	return check(o.body, want)
}

// loop runs the closed loop over reqs for d and returns every request
// attempted with the wall time taken. It stops early only when the
// stream runs out.
func (c *client) loop(ctx context.Context, reqs []request, d time.Duration) ([]outcome, time.Duration) {
	outs := make([]outcome, 0, len(reqs))
	start := time.Now()
	deadline := start.Add(d)
	for i := range reqs {
		if !time.Now().Before(deadline) {
			break
		}
		outs = append(outs, c.send(ctx, &reqs[i]))
	}
	return outs, time.Since(start)
}
