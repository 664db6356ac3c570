package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverSpec is how one scoded-serve instance is configured.
type serverSpec struct {
	dataDir       string
	residentBytes int64
}

// flags renders the spec as scoded-serve flags (the listen address aside).
func (s serverSpec) flags() []string {
	var out []string
	if s.dataDir != "" {
		out = append(out, "-data-dir", s.dataDir)
	}
	if s.residentBytes > 0 {
		out = append(out, "-resident-bytes", strconv.FormatInt(s.residentBytes, 10))
	}
	return out
}

// instance is one running server the workload drives over HTTP.
type instance struct {
	url   string
	flags []string
	// pid is the process whose CPU time and peak RSS are reported.
	pid  int
	stop func() error
}

// launcher starts servers. The benchmark launches scoded-serve child
// processes; the tests launch in-process httptest servers.
type launcher interface {
	start(ctx context.Context, spec serverSpec) (*instance, error)
}

// procLauncher starts the scoded-serve binary built from the checkout.
type procLauncher struct {
	bin    string
	logDir string
}

// readyTimeout bounds how long a child may take to answer /healthz.
const readyTimeout = 30 * time.Second

func (l procLauncher) start(ctx context.Context, spec serverSpec) (*instance, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(l.logDir, "serve-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(l.bin, append([]string{"-addr", addr}, spec.flags()...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the child dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, errors.Join(err, logf.Close())
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = errors.Join(cmd.Wait(), logf.Close())
		close(exited)
	}()
	inst := &instance{url: "http://" + addr, flags: spec.flags(), pid: cmd.Process.Pid}
	inst.stop = func() error {
		select {
		case <-exited:
			return fmt.Errorf("scoded-serve exited early: %v", waitErr)
		default:
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-exited:
			return waitErr
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill() // the drain hung; the error below reports it
			<-exited
			return errors.New("scoded-serve did not drain within 15s and was killed")
		}
	}
	if err := waitReady(ctx, inst.url, exited); err != nil {
		_ = inst.stop() // the readiness error is the one worth reporting
		return nil, fmt.Errorf("%w\n%s", err, tail(logf.Name()))
	}
	return inst, nil
}

// waitReady polls /healthz until it answers 200, the process exits, or the
// deadline passes.
func waitReady(ctx context.Context, url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("scoded-serve exited before answering /healthz")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scoded-serve on %s not ready after %s", url, readyTimeout)
		}
	}
}

// tail returns the last lines of a server log, for error reports.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// buildServe compiles cmd/scoded-serve from the checkout at root.
func buildServe(ctx context.Context, root, out string) (string, error) {
	bin := filepath.Join(out, "scoded-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/scoded-serve")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building scoded-serve: %v\n%s", err, stderr.String())
	}
	return bin, nil
}

// client is the benchmark's HTTP client: one transport whose connection
// pool is capped at the workload's client count.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into buf.
func (c *client) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// expect sends a request and fails unless the status is want. It returns
// a copy of the body.
func (c *client) expect(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var buf bytes.Buffer
	status, err := c.do(ctx, method, path, body, &buf)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// clockTicks is the kernel's USER_HZ, read from the auxiliary vector
// (AT_CLKTCK); 100 is the Linux default when it cannot be read.
var clockTicks = func() int64 {
	data, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	const atClkTck = 17
	for i := 0; i+16 <= len(data); i += 16 {
		key := uint64(0)
		val := uint64(0)
		for b := 7; b >= 0; b-- {
			key = key<<8 | uint64(data[i+b])
			val = val<<8 | uint64(data[i+8+b])
		}
		if key == atClkTck && val > 0 {
			return int64(val)
		}
	}
	return 100
}()

// cpuTime is a process's user plus system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state).
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / time.Duration(clockTicks), nil
}

// residentBytes is a process's VmRSS from /proc/<pid>/status.
func residentBytes(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
