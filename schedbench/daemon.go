package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one schedd process the benchmark started. Every daemon is
// stopped (terminate or kill) before the run ends, on every path.
type daemon struct {
	bin  string
	args []string
	addr string // HTTP listen address

	cmd    *exec.Cmd
	stderr *syncBuffer
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// syncBuffer is the daemon's stderr sink; os/exec copies into it from
// its own goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b.Len() > 1<<16 {
		return len(p), nil // keep the head; a chatty daemon must not grow us
	}
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// running tracks the daemon processes not yet waited for, so that an
// interrupted run can stop them before it exits.
var running = &processSet{m: make(map[*os.Process]struct{})}

type processSet struct {
	mu sync.Mutex
	m  map[*os.Process]struct{}
}

func (s *processSet) add(p *os.Process) {
	s.mu.Lock()
	s.m[p] = struct{}{}
	s.mu.Unlock()
}

func (s *processSet) remove(p *os.Process) {
	s.mu.Lock()
	delete(s.m, p)
	s.mu.Unlock()
}

// killAll sends SIGKILL to every tracked process.
func (s *processSet) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.m {
		_ = p.Kill() // already gone is fine
	}
}

// freeAddr returns a loopback address with a port the kernel just
// handed out and released.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// bootAttempts bounds the retries when a port freeAddr handed out was
// taken again before schedd could bind it.
const bootAttempts = 5

// startDaemon execs schedd with args() plus a fresh -addr and returns
// once /healthz answers 200, with the time from exec to that answer.
// args is called again for each retry, so it can choose fresh ports.
func startDaemon(bin string, args func() []string) (*daemon, time.Duration, error) {
	for attempt := 1; ; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		d := &daemon{bin: bin, args: append([]string{"-addr", addr}, args()...), addr: addr}
		took, err := d.exec()
		if err == nil {
			return d, took, nil
		}
		if attempt == bootAttempts || !strings.Contains(d.stderr.String(), "address already in use") {
			return nil, 0, err
		}
	}
}

// exec starts the process (again, after a kill) and waits for health.
func (d *daemon) exec() (time.Duration, error) {
	d.stderr = &syncBuffer{}
	d.cmd = exec.Command(d.bin, d.args...)
	d.cmd.Stdout = d.stderr
	d.cmd.Stderr = d.stderr
	// Should the benchmark die without stopping its daemon, the kernel
	// does it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.done = make(chan struct{})
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return 0, fmt.Errorf("start schedd: %w", err)
	}
	proc := d.cmd.Process
	running.add(proc)
	go func() {
		d.err = d.cmd.Wait()
		running.remove(proc)
		close(d.done)
	}()
	if err := d.awaitHealthy(30 * time.Second); err != nil {
		d.kill()
		return 0, err
	}
	return time.Since(t0), nil
}

var healthClient = &http.Client{
	Timeout:   time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("schedd exited during start-up (%v): %s", d.err, d.stderr)
		default:
		}
		resp, err := healthClient.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("schedd not healthy after %v: %s", limit, d.stderr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// get fetches path from the daemon's HTTP API.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := healthClient.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// terminate sends SIGTERM and requires the drain to end with exit 0.
func (d *daemon) terminate() error {
	if d == nil || d.cmd == nil {
		return nil
	}
	select {
	case <-d.done:
		return fmt.Errorf("schedd had already exited (%v): %s", d.err, d.stderr)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal schedd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("schedd did not exit within 30s of SIGTERM")
	}
	d.cmd = nil
	if d.err != nil {
		return fmt.Errorf("schedd drain exit: %v: %s", d.err, d.stderr)
	}
	return nil
}

// kill sends SIGKILL and waits for the process to be gone. Safe on a
// daemon that already exited or was never started.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.done
	d.cmd = nil
}

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// vmHWM reads the peak resident set size from a /proc status file.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS returns the memory the collector freed to the OS and
// restarts this process's VmHWM from its current RSS (clear_refs 5).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// promValue returns the value of the first sample line in a Prometheus
// text exposition whose name and labels equal series.
func promValue(expo []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(expo), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}
