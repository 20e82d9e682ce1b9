package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// repoRoot finds the checkout root: the directory holding cmd/mpnserver,
// looked for in the working directory and its parent (go -C bench run .
// starts the benchmark inside bench/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mpnserver", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/mpnserver not found: run from the checkout root with `go -C bench run .`")
}

// buildServer compiles cmd/mpnserver from source into bench/out. It runs
// before any clock starts.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(out, "mpnserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mpnserver")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mpnserver: %v\n%s", err, msg)
	}
	return bin, nil
}

// server is one mpnserver subprocess.
type server struct {
	cmd  *exec.Cmd
	addr string
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns mpnserver with two cores, two shards and one worker
// per shard, its stderr discarded, and returns once it accepts
// connections.
func startServer(bin string, flags []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-listen", addr, "-shards", "2", "-workers", "1"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mpnserver did not accept on %s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the subprocess and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait() // the kill makes Wait report a signal exit
}

// clockTick is USER_HZ; Linux fixes it at 100 on every supported
// architecture, and /proc reports CPU time in these ticks.
const clockTick = 100

// cpuMs returns the subprocess's user+system CPU time so far.
func (s *server) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return float64(utime+stime) * 1000 / clockTick, nil
}

// rssPeakMB returns the subprocess's VmHWM.
func (s *server) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}
