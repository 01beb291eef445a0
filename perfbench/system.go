package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// fleetWorkers is the fleet workload's daemon count.
const fleetWorkers = 2

// system is one instance of the system under test: `banger serve`
// and, for fleet workloads, its `banger worker` daemons, each a
// separate process.
type system struct {
	procs []*proc // server first
	url   string
}

type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the stdout reader has hit EOF
}

// childEnv is the environment with every Go runtime tuning variable
// removed, so the system runs with its shipped defaults.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// launch starts one process and waits for the stdout line starting
// with prefix, returning the rest of that line.
func launch(ctx context.Context, name, logDir, prefix string, argv ...string) (*proc, string, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = childEnv()
	cmd.Stderr = logf
	// If the harness itself is killed, its children go with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, "", fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				select {
				case found <- rest:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case addr := <-found:
		return p, addr, nil
	case <-p.done:
		p.stop()
		return nil, "", fmt.Errorf("%s exited before printing %q (see %s)", name, prefix, logf.Name())
	case <-ctx.Done():
		p.stop()
		return nil, "", fmt.Errorf("%s: %w", name, ctx.Err())
	}
}

// stop asks the process to shut down, kills it if it lingers, and
// waits until it has exited and its output is drained.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.cmd.Wait() // the exit status of a stopped daemon carries nothing
	p.log.Close()
}

// startWorkers launches n `banger worker` daemons and returns them
// with their listen addresses.
func startWorkers(ctx context.Context, banger, logDir string, n int) ([]*proc, []string, error) {
	var procs []*proc
	var addrs []string
	for i := 0; i < n; i++ {
		p, addr, err := launch(ctx, fmt.Sprintf("worker%d", i), logDir, "listening on ",
			banger, "worker", "-listen", "127.0.0.1:0", "-quiet")
		if err != nil {
			for _, w := range procs {
				w.stop()
			}
			return nil, nil, err
		}
		procs = append(procs, p)
		addrs = append(addrs, strings.TrimSpace(addr))
	}
	return procs, addrs, nil
}

// startSystem launches the system and returns once it is listening
// and, with fleet, every daemon is a live fleet member.
func startSystem(ctx context.Context, banger, logDir string, fleet bool) (*system, error) {
	sys := &system{}
	var workers []*proc
	argv := []string{banger, "serve", "-listen", "127.0.0.1:0"}
	if fleet {
		var addrs []string
		var err error
		if workers, addrs, err = startWorkers(ctx, banger, logDir, fleetWorkers); err != nil {
			return nil, err
		}
		argv = append(argv, "-fleet", strings.Join(addrs, ","))
	}
	srv, addr, err := launch(ctx, "serve", logDir, "serving on ", argv...)
	if err != nil {
		for _, w := range workers {
			w.stop()
		}
		return nil, err
	}
	sys.procs = append([]*proc{srv}, workers...)
	sys.url = strings.TrimSpace(addr)
	if fleet {
		if err := sys.awaitFleet(ctx); err != nil {
			sys.stop()
			return nil, err
		}
	}
	return sys, nil
}

// awaitFleet polls /healthz until the server counts every daemon.
func (s *system) awaitFleet(ctx context.Context) error {
	for {
		var h struct{ Fleet int }
		if err := getJSON(ctx, s.url+"/healthz", &h); err != nil {
			return err
		}
		if h.Fleet == fleetWorkers {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet has %d of %d workers: %w", h.Fleet, fleetWorkers, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the server down first, so no run is left without its
// daemons, then the daemons.
func (s *system) stop() {
	for _, p := range s.procs {
		p.stop()
	}
}

func (s *system) pids() []int {
	var ids []int
	for _, p := range s.procs {
		ids = append(ids, p.cmd.Process.Pid)
	}
	return ids
}

func (s *system) stats(ctx context.Context) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	err := getJSON(ctx, s.url+"/stats", &st)
	return st, err
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// usage is CPU time and peak resident memory summed over processes.
type usage struct {
	cpu    time.Duration
	hwmKiB int64
}

// clockTick is the unit of utime/stime in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 for every user-visible interface.
const clockTick = 10 * time.Millisecond

// sample reads user+system CPU (all threads, /proc/<pid>/stat) and
// VmHWM (/proc/<pid>/status) of every process and sums them.
func sample(pids []int) (usage, error) {
	var u usage
	for _, pid := range pids {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return u, err
		}
		// Fields after the parenthesised command name start at field 3
		// (state); utime and stime are fields 14 and 15.
		i := strings.LastIndexByte(string(stat), ')')
		if i < 0 {
			return u, fmt.Errorf("/proc/%d/stat: no command name", pid)
		}
		f := strings.Fields(string(stat[i+1:]))
		if len(f) < 13 {
			return u, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
		}
		for _, s := range f[11:13] {
			t, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			u.cpu += time.Duration(t) * clockTick
		}
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return u, err
		}
		hwm := int64(-1)
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				hwm, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return u, fmt.Errorf("/proc/%d/status: %w", pid, err)
				}
			}
		}
		if hwm < 0 {
			return u, errors.New("no VmHWM in /proc/" + strconv.Itoa(pid) + "/status")
		}
		u.hwmKiB += hwm
	}
	return u, nil
}
