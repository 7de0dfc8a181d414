package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// numShards is the ROADMAP topology: one router over two shards.
const numShards = 2

// bootTimeout bounds how long a process may take to serve.
const bootTimeout = 60 * time.Second

// proc is one child process on loopback.
type proc struct {
	name  string
	bin   string
	args  []string
	addr  string // serving address, http://127.0.0.1:port
	pprof string // pprof side listener of a shard, http://127.0.0.1:port
	log   string
	cmd   *exec.Cmd
	done  chan struct{}
}

func (p *proc) start() error {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Children die with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd, p.done = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return nil
}

// kill stops the process with SIGKILL — a crash, as far as the
// program can tell — and waits until it has exited.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	p.cmd = nil
}

// exited reports whether the process has stopped on its own.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// topology is one router in front of numShards mdserve shards.
type topology struct {
	shards []*proc
	router *proc
	client *http.Client
}

// handedOut holds every port freeAddr has returned in this process. A
// port is free when checked but is bound only later, by a child; until
// then another check would find it free too, so none is given twice.
var handedOut = map[int]bool{}

// freeAddr picks a free loopback port below the kernel's ephemeral
// range. A port from the ephemeral range (what listening on port 0
// gives) can be taken by an outgoing connection between this check
// and the child's bind, or while a crashed shard is down; ports below
// the range are only ever taken by listeners.
func freeAddr() (string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if n, err := strconv.Atoi(f[0]); err == nil {
				low = n
			}
		}
	}
	const floor = 10000
	if low <= floor+100 {
		low = 65536 // no room below the range: use the range itself
	}
	for try := 0; try < 1000; try++ {
		port := floor + rand.Intn(low-floor)
		if handedOut[port] {
			continue
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			handedOut[port] = true
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free loopback port in %d-%d", floor, low-1)
}

// newTopology lays out the processes under dir (context file, data
// dirs, logs) without starting them.
func newTopology(w workload, bin, dir, contextFile string) (*topology, error) {
	t := &topology{client: &http.Client{Timeout: 30 * time.Second}}
	var backendArgs []string
	for i := 0; i < numShards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		pp, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{
			"-addr", addr, "-pprof", pp, "-context", "gen=" + contextFile,
			"-parallelism", strconv.Itoa(runtime.NumCPU()),
		}
		if w.Durable {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("data%d", i)),
				"-fsync", w.Fsync, "-max-resident-sessions", strconv.Itoa(w.MaxResident))
		}
		t.shards = append(t.shards, &proc{
			name: fmt.Sprintf("shard%d", i), bin: filepath.Join(bin, "mdserve"), args: args,
			addr: "http://" + addr, pprof: "http://" + pp, log: filepath.Join(dir, fmt.Sprintf("shard%d.log", i)),
		})
		backendArgs = append(backendArgs, "-backend", "http://"+addr)
	}
	raddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t.router = &proc{
		name: "router", bin: filepath.Join(bin, "mdrouter"),
		args: append([]string{"-addr", raddr, "-health-interval", "50ms"}, backendArgs...),
		addr: "http://" + raddr, log: filepath.Join(dir, "router.log"),
	}
	return t, nil
}

// boot starts the shards, then the router, and returns once the
// router sees every shard healthy.
func (t *topology) boot(ctx context.Context) error {
	if err := t.startShards(ctx); err != nil {
		return err
	}
	if err := t.router.start(); err != nil {
		return err
	}
	return t.waitRouter(ctx)
}

// startShards starts every shard and waits until each answers
// /healthz. A durable shard recovers its sessions before it listens,
// so this is also the recovery wait.
func (t *topology) startShards(ctx context.Context) error {
	for _, s := range t.shards {
		if err := s.start(); err != nil {
			return err
		}
	}
	for _, s := range t.shards {
		if err := t.waitHealthy(ctx, s, func([]byte) bool { return true }); err != nil {
			return err
		}
	}
	return nil
}

func (t *topology) waitRouter(ctx context.Context) error {
	return t.waitHealthy(ctx, t.router, func(body []byte) bool {
		var h struct{ Backends, Healthy int }
		return json.Unmarshal(body, &h) == nil && h.Healthy == h.Backends
	})
}

func (t *topology) waitHealthy(ctx context.Context, p *proc, ok func([]byte) bool) error {
	deadline := time.Now().Add(bootTimeout)
	for {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (log: %s)", p.name, tail(p.log))
		}
		resp, err := t.client.Get(p.addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s", p.name, bootTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// restartShard crashes one shard with SIGKILL and starts it again over
// the same data dir, returning the time from the restart until it
// serves. Shards restart one at a time, so each is timed without the
// other competing for the cores.
func (t *topology) restartShard(ctx context.Context, s *proc) (time.Duration, error) {
	s.kill()
	start := time.Now()
	if err := s.start(); err != nil {
		return 0, err
	}
	if err := t.waitHealthy(ctx, s, func([]byte) bool { return true }); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// stop kills every process and waits for each to exit.
func (t *topology) stop() {
	t.router.kill()
	for _, s := range t.shards {
		s.kill()
	}
}

func (t *topology) shardURLs() []string {
	var out []string
	for _, s := range t.shards {
		out = append(out, s.addr)
	}
	return out
}

// liveHeapBytes sums the shards' live heap: the runtime's HeapAlloc
// right after the forced GC of a pprof heap profile request.
func (t *topology) liveHeapBytes() (int64, error) {
	var total int64
	for _, s := range t.shards {
		resp, err := t.client.Get(s.pprof + "/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(body), "# HeapAlloc = ")
		if !ok {
			return 0, fmt.Errorf("%s: no HeapAlloc in heap profile", s.name)
		}
		n, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTicks = 100

// cpuTime sums the user and system CPU time the router and the shards
// have used so far (all their threads, from /proc/<pid>/stat).
func (t *topology) cpuTime() (time.Duration, error) {
	var ticks int64
	for _, p := range append([]*proc{t.router}, t.shards...) {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name start at field
		// 3 (state); utime and stime are fields 14 and 15.
		s := string(data)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("%s: short /proc stat line", p.name)
		}
		for _, v := range f[11:13] {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += n
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// tail returns the end of a log file, for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}
