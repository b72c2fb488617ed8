package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// bloomrfd as a subprocess on loopback, and the bench's HTTP client for it.

type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited
	log  *os.File
}

// startServer runs bin with flags on a free loopback port, logging to
// logPath, and returns once /healthz answers.
func startServer(bin string, flags []string, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the bench, even when the bench is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting bloomrfd: %w", err)
	}
	s := &daemon{cmd: cmd, addr: addr, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(s.done)
	}()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *daemon) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("bloomrfd exited during start-up; see %s", s.log.Name())
		default:
		}
		resp, err := hc.Get("http://" + s.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bloomrfd not healthy after %s; see %s", timeout, s.log.Name())
}

// kill sends SIGKILL and waits for the process to exit.
func (s *daemon) kill() {
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.done
	s.log.Close()
}

func (s *daemon) pid() int { return s.cmd.Process.Pid }

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// client sends the bench's requests over at most conns keep-alive
// connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body and returns the status and the response body.
func (c *client) post(path, ctype string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postOK is post for set-up and verify calls, where anything but 2xx is an
// error.
func (c *client) postOK(path, ctype string, body []byte) ([]byte, error) {
	code, b, err := c.post(path, ctype, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if code/100 != 2 {
		return nil, fmt.Errorf("POST %s: %d %s", path, code, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads /metrics into a map from series ("name{labels}") to value.
func (c *client) scrape() (series, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := series{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// series is one /metrics scrape.
type series map[string]float64

// sumPrefix adds every series whose key starts with prefix.
func (s series) sumPrefix(prefix string) float64 {
	var sum float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// procCPU returns the CPU time of process pid: the sum over its threads of
// the nanosecond run time in /proc/<pid>/task/<tid>/schedstat. (The
// utime+stime of /proc/<pid>/stat counts whole 10 ms ticks, too coarse for
// 20 ms windows.)
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakMiB returns the peak resident memory (VmHWM) of process pid in MiB.
func peakMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
