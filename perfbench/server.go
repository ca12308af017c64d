package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one running ssrq-server process.
type Server struct {
	cmd   *exec.Cmd
	Base  string // http://127.0.0.1:port
	log   *os.File
	start time.Time
	done  chan struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// StartServer launches bin with args plus a fresh -addr, logging to
// logPath, and waits until /healthz answers 200. It returns the server
// and the exec→healthy time.
func StartServer(bin string, args []string, logPath string) (*Server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The kernel kills the server if the benchmark dies before Kill runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &Server{cmd: cmd, Base: "http://" + addr, log: lf, done: make(chan struct{})}
	s.start = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills it
		close(s.done)
	}()
	setup, err := s.waitHealthy(60 * time.Second)
	if err != nil {
		s.Kill()
		return nil, 0, fmt.Errorf("%s %s: %w (see %s)", bin, strings.Join(args, " "), err, logPath)
	}
	return s, setup, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (s *Server) waitHealthy(timeout time.Duration) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := s.start.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("server exited before becoming healthy")
		default:
		}
		resp, err := c.Get(s.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("not healthy within %v", timeout)
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *Server) PeakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// CPUSeconds reads the process's user+system CPU time over all its
// threads. The kernel accounts hypervisor steal separately, so this cost
// does not grow when the machine's other tenants take the CPU away.
func (s *Server) CPUSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// Kill sends SIGKILL and waits for the process to end.
func (s *Server) Kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.done
	s.log.Close()
}

// get fetches base+path on a throwaway request.
func get(ctx context.Context, c *http.Client, base, path string) (int, []byte, error) {
	return do(ctx, c, base, Request{Method: http.MethodGet, Path: path})
}
