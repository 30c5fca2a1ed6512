package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the programs under test from the repository the
// benchmark sits in, so a checkout is always measured as its own source says.
// It returns the directory holding them and how long the build took (reported
// as loadgen.build_s, never part of setup_s).
func buildBinaries(ctx context.Context, repoRoot, outDir string) (string, time.Duration, error) {
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/recserve", "./cmd/kvserver")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/recserve ./cmd/kvserver: %w\n%s", err, out)
	}
	return binDir, time.Since(start), nil
}

// freeAddr returns a loopback address nothing listens on right now. The port
// is released before the child binds it, so a collision is possible in
// principle; a child that fails to bind fails the health wait loudly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launcher starts child processes from one goroutine pinned to its OS thread
// for the life of the harness. Linux delivers a child's parent-death signal
// when the *thread* that forked it exits, so forking from an ordinary
// goroutine could kill a server mid-run when the runtime retires a thread;
// from the pinned thread it fires exactly when the harness itself dies, which
// is the one exit no deferred cleanup can cover (SIGKILL on a timeout).
type launcher struct {
	once sync.Once
	reqs chan launchReq

	mu      sync.Mutex
	started []*proc // guarded by mu; every child ever started, for stopAll
}

type launchReq struct {
	cmd  *exec.Cmd
	done chan error
}

func (l *launcher) start(cmd *exec.Cmd) error {
	l.once.Do(func() {
		l.reqs = make(chan launchReq)
		go func() {
			runtime.LockOSThread()      // never unlocked: the thread lives as long as the process
			_ = pinThread(serverCPUs()) // children inherit it (see clientCPUs); best effort
			for r := range l.reqs {
				r.done <- r.cmd.Start()
			}
		}()
	})
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	req := launchReq{cmd: cmd, done: make(chan error, 1)}
	l.reqs <- req
	return <-req.done
}

var children launcher

// stopAll stops every child the harness started and waits for each: what a
// signal or the run deadline calls before the harness exits.
func (l *launcher) stopAll() {
	l.mu.Lock()
	procs := append([]*proc(nil), l.started...)
	l.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// proc is one running program under test.
type proc struct {
	name    string
	cmd     *exec.Cmd
	log     *os.File
	waited  chan struct{}
	waitErr error // valid once waited is closed
}

// startProc launches bin with args, its output going to logPath.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	p := &proc{name: name, cmd: cmd, log: logf, waited: make(chan struct{})}
	if err := children.start(cmd); err != nil {
		_ = logf.Close() // nothing was written
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.mu.Lock()
	children.started = append(children.started, p)
	children.mu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.waited)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process to exit, escalates to SIGKILL after a grace period,
// and returns only once it has been reaped.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine: the wait below still reaps
	select {
	case <-p.waited:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.waited
	}
	_ = p.log.Close() // diagnostics only
}

// exited reports whether the process has already ended (a crash).
func (p *proc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// waitHealthy polls GET /healthz until it answers 200, the process dies, or
// the context ends, and returns the moment of the first healthy answer.
func waitHealthy(ctx context.Context, p *proc, addr string) (time.Time, error) {
	req := renderGET("/healthz")
	c := newHTTPConn(addr)
	c.timeout = time.Second
	defer c.close()
	for {
		if status, err := c.roundTrip(req); err == nil && status == 200 {
			return time.Now(), nil
		}
		if p.exited() {
			return time.Time{}, fmt.Errorf("%s exited before becoming healthy: %v (see %s)", p.name, p.waitErr, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitListening polls a raw TCP address (kvserver has no HTTP surface).
func waitListening(ctx context.Context, p *proc, addr string) error {
	for {
		if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			return nc.Close()
		}
		if p.exited() {
			return fmt.Errorf("%s exited before listening: %v (see %s)", p.name, p.waitErr, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not listening: %w", p.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is 100
// on every Linux port Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(string(stat[i+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseVmHWM extracts the peak resident set, in MB, from the contents of
// /proc/<pid>/status.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// parseSchedstat extracts the time one thread has spent on a CPU, in seconds,
// from the contents of /proc/<pid>/task/<tid>/schedstat.
func parseSchedstat(schedstat []byte) (float64, error) {
	fields := strings.Fields(string(schedstat))
	if len(fields) != 3 {
		return 0, fmt.Errorf("proc schedstat: %d fields, want 3", len(fields))
	}
	ns, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc schedstat: run time: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// processCPUSeconds is the CPU time of one process: its threads' run times
// from schedstat, which count nanoseconds, or — on a kernel built without
// them — utime+stime from /proc/<pid>/stat, which count 10 ms ticks (2% of a
// one-second window's CPU time at the open-loop rates). A thread that has
// exited is missing from the former; the servers keep theirs.
func processCPUSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)) // the pattern is well-formed
	var total float64
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		s, err := parseSchedstat(raw)
		if err != nil {
			return 0, err
		}
		total += s
	}
	if len(tasks) > 0 {
		return total, nil
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(stat)
}

// cpuSeconds sums CPU time over the given processes.
func cpuSeconds(procs []*proc) (float64, error) {
	var total float64
	for _, p := range procs {
		s, err := processCPUSeconds(p.pid())
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// peakRSSMB sums VmHWM over the given processes.
func peakRSSMB(procs []*proc) (float64, error) {
	var total float64
	for _, p := range procs {
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
		if err != nil {
			return 0, err
		}
		mb, err := parseVmHWM(status)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
