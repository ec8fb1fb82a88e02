package main

// Child-process management for the shserved under test: spawn on a
// free loopback port, wait for the first healthy /healthz, read its
// peak RSS, and stop it.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverJobs is shserved's -jobs: the simulation worker pool, sized to
// the 2-core host the benchmark is tuned on.
const serverJobs = 2

// server is one running shserved child.
type server struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns shserved (with -cache when cachePath is set,
// logging to logPath) and returns once /healthz first answers 200,
// with the time from spawn to that answer.
func startServer(bin, cachePath, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-jobs", strconv.Itoa(serverJobs), "-log-level", "warn"}
	if cachePath != "" {
		args = append(args, "-cache", cachePath)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the
	// benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()

	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("shserved exited before becoming healthy: %v (see %s)", s.err, logPath)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("shserved did not become healthy within 60s")
		}
	}
}

// stop terminates the server (SIGTERM, then SIGKILL after a grace
// period) and waits until the process has exited. Calling it again,
// or on a nil server, does nothing.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	// Signal errors mean the process already exited; done will close.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// statusMB returns a memory field ("VmHWM", "VmRSS") of the server's
// /proc/<pid>/status in MiB.
func (s *server) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := readStatusKB(f, field)
	return float64(kb) / 1024, err
}

// sampleRSS reads the server's VmRSS every interval until the returned
// stop function is called; stop returns the samples in MiB.
func (s *server) sampleRSS(interval time.Duration) (stop func() []float64) {
	quit, finished := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if mb, err := s.statusMB("VmRSS"); err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-finished
		return samples
	}
}

// readStatusKB extracts a "<field>:  <n> kB" line of a
// /proc/<pid>/status document, in kB.
func readStatusKB(r io.Reader, field string) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed %s line %q", field, sc.Text())
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in process status", field)
}
