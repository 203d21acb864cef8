package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// cleanup tracks everything a run must not leave behind: live children and
// temp dirs. Every exit path — normal return, failure, Ctrl-C — goes through
// cleanupAll.
var cleanup = struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}{children: map[*child]struct{}{}, dirs: map[string]struct{}{}}

func cleanupAll() {
	cleanup.mu.Lock()
	children := make([]*child, 0, len(cleanup.children))
	for c := range cleanup.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(cleanup.dirs))
	for d := range cleanup.dirs {
		dirs = append(dirs, d)
	}
	cleanup.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		removeTempDir(d)
	}
}

// trapSignals kills children and removes temp dirs on SIGINT/SIGTERM, then
// exits with the conventional 128+signal code.
func trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "bench: %v: stopping children and removing temp dirs\n", sig)
		cleanupAll()
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()
}

func newTempDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, prefix)
	if err != nil {
		return "", err
	}
	cleanup.mu.Lock()
	cleanup.dirs[dir] = struct{}{}
	cleanup.mu.Unlock()
	return dir, nil
}

func removeTempDir(dir string) {
	_ = os.RemoveAll(dir) // best effort: the directory is under the gitignored build dir
	cleanup.mu.Lock()
	delete(cleanup.dirs, dir)
	cleanup.mu.Unlock()
}

// child is one uncertserve process on a loopback port of its own.
type child struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the child binds it, so a collision is possible in principle; it
// surfaces as the child exiting early, which fails the run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches the server binary with GOMAXPROCS=2 on a free port.
// It does not wait for the server to answer; see client.waitHealthy.
func startChild(bin string, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &child{url: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	cleanup.mu.Lock()
	cleanup.children[c] = struct{}{}
	cleanup.mu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// alive reports an early exit as an error carrying the child's last words.
func (c *child) alive() error {
	select {
	case <-c.exited:
		return fmt.Errorf("uncertserve exited early (%v): %s", c.err, lastLines(c.stderr.String(), 5))
	default:
		return nil
	}
}

// kill sends SIGKILL — a process crash, not a power loss: the operating
// system's page cache survives — and waits for the process to be gone.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
	cleanup.mu.Lock()
	delete(cleanup.children, c)
	cleanup.mu.Unlock()
}

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (c *child) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
