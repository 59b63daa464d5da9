package main

// The cycled daemon as its own process: launch, readiness, the counters
// read before and after the timed phase, and shutdown.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonFlags are the CI smoke's production flags plus loopback
// listeners; -addr and -pprof bind port 0 and the daemon logs the ports.
var daemonFlags = []string{
	"-addr", "127.0.0.1:0",
	"-pprof", "127.0.0.1:0",
	"-max-inflight", "64",
	"-max-queue", "128",
	"-plan-timeout", "30s",
	"-degrade",
}

type daemon struct {
	cmd       *exec.Cmd
	addr      string // serving host:port
	pprof     string // profiling host:port
	boot      time.Duration
	launched  time.Time
	exited    chan struct{}
	waitErr   error
	logMu     sync.Mutex
	log       strings.Builder
	stderrEOF chan struct{}
}

// startDaemon launches bin with the production flags (plus -snapshot
// when snapshot is non-empty) and returns once /readyz answers 200.
func startDaemon(bin, snapshot string) (*daemon, error) {
	args := append([]string(nil), daemonFlags...)
	if snapshot != "" {
		args = append(args, "-snapshot", snapshot)
	}
	d := &daemon{
		cmd:       exec.Command(bin, args...),
		exited:    make(chan struct{}),
		stderrEOF: make(chan struct{}),
	}
	// Should the generator die, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 1)
	d.launched = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("launching %s: %w", bin, err)
	}
	go d.readLog(stderr, addrs)
	go func() {
		<-d.stderrEOF
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.addr, d.pprof = a[0], a[1]
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited during boot: %v\n%s", d.waitErr, d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not report its address within 60s\n%s", d.logText())
	}
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon not ready within 60s\n%s", d.logText())
		}
		time.Sleep(time.Millisecond)
	}
	d.boot = time.Since(d.launched)
	client.CloseIdleConnections()
	return d, nil
}

// readLog keeps the daemon's stderr and reports the two bound addresses
// from its startup lines.
func (d *daemon) readLog(r io.Reader, addrs chan<- [2]string) {
	defer close(d.stderrEOF)
	sc := bufio.NewScanner(r)
	var pprofAddr string
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		d.log.WriteString(line + "\n")
		d.logMu.Unlock()
		if a, ok := strings.CutPrefix(line, "cycled: pprof on http://"); ok {
			pprofAddr = strings.TrimSuffix(a, "/debug/pprof/")
		}
		if a, ok := strings.CutPrefix(line, "cycled: listening on "); ok && !sent {
			addr, _, _ := strings.Cut(a, " ")
			addrs <- [2]string{addr, pprofAddr}
			sent = true
		}
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop shuts the daemon down with SIGTERM, as an operator would, and
// waits for it to exit; a daemon that has not exited after 30s is
// killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon ignored SIGTERM for 30s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// counters is one reading of the daemon's counters.
type counters struct {
	metrics map[string]float64 // /metrics samples by name{labels}
	mallocs float64            // runtime MemStats via pprof
	numGC   float64
	cpu     time.Duration // user+system CPU of the daemon process
}

func (d *daemon) read(ctx context.Context, client *http.Client) (counters, error) {
	var c counters
	body, err := get(ctx, client, "http://"+d.addr+"/metrics")
	if err != nil {
		return c, err
	}
	c.metrics = parseMetrics(body)
	heap, err := get(ctx, client, "http://"+d.pprof+"/debug/pprof/heap?debug=1")
	if err != nil {
		return c, err
	}
	stats := parseMemStats(heap)
	c.mallocs, c.numGC = stats["Mallocs"], stats["NumGC"]
	c.cpu, err = procCPU(d.cmd.Process.Pid)
	return c, err
}

func get(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// parseMetrics reads the Prometheus text exposition into name{labels} →
// value.
func parseMetrics(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// parseMemStats reads the "# Name = value" MemStats lines of a
// debug=1 heap profile.
func parseMemStats(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			m[k] = f
		}
	}
	return m
}

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// hostCPU reads the machine's CPU time from the first line of
// /proc/stat, in clock ticks: the time stolen by the hypervisor (a CPU
// of this guest was ready but the host ran something else) and the
// total over user, nice, system, idle, iowait, irq, softirq and steal.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad /proc/stat line %q", line)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// procHWM reads a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
