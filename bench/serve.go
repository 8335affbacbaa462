package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	emdsearch "emdsearch"
)

// target is what the closed-loop clients drive: the emdserve child
// over HTTP, or a ShardSet in-process. respBytes is the response body
// size (0 in-process).
type target interface {
	knn(q emdsearch.Histogram, k int) (ans *emdsearch.ShardAnswer, respBytes int, err error)
	rangeQ(q emdsearch.Histogram, eps float64) (*emdsearch.ShardRangeAnswer, error)
}

type setTarget struct{ set *emdsearch.ShardSet }

func (t setTarget) knn(q emdsearch.Histogram, k int) (*emdsearch.ShardAnswer, int, error) {
	ans, err := t.set.KNN(context.Background(), q, k)
	return ans, 0, err
}

func (t setTarget) rangeQ(q emdsearch.Histogram, eps float64) (*emdsearch.ShardRangeAnswer, error) {
	return t.set.Range(context.Background(), q, eps)
}

// httpTarget posts to an emdserve child over keep-alive connections.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(addr string) *httpTarget {
	return &httpTarget{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
			Timeout:   30 * time.Second,
		},
	}
}

// post sends body to path and decodes a 200 response into out.
func (t *httpTarget) post(path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return len(raw), json.Unmarshal(raw, out)
}

func (t *httpTarget) knn(q emdsearch.Histogram, k int) (*emdsearch.ShardAnswer, int, error) {
	ans := new(emdsearch.ShardAnswer)
	n, err := t.post("/knn", map[string]any{"q": q, "k": k}, ans)
	return ans, n, err
}

func (t *httpTarget) rangeQ(q emdsearch.Histogram, eps float64) (*emdsearch.ShardRangeAnswer, error) {
	ans := new(emdsearch.ShardRangeAnswer)
	_, err := t.post("/range", map[string]any{"q": q, "eps": eps}, ans)
	return ans, err
}

// children are the emdserve processes alive right now, so that a
// signal handler can stop them; every normal path stops its own child
// with a deferred stop.
var children struct {
	sync.Mutex
	m map[*child]bool
}

func stopAllChildren() {
	children.Lock()
	var all []*child
	for c := range children.m {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// child is one running emdserve.
type child struct {
	cmd      *exec.Cmd
	addr     string
	waitExit chan struct{} // closed once the process has been reaped
	once     sync.Once
}

// buildServer compiles cmd/emdserve into dir. It runs from the module
// root, which is the working directory the benchmark is started in.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "emdserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/emdserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/emdserve: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer launches bin on a free loopback port with the
// workload's corpus flags and this process's GOMAXPROCS, and returns
// once /healthz answers 200.
func startServer(bin string, sp spec) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin,
		"-addr", addr,
		"-shards", strconv.Itoa(shards),
		"-n", strconv.Itoa(sp.N), "-d", strconv.Itoa(sp.D),
		"-dprime", strconv.Itoa(sp.Opts.ReducedDims),
		"-seed", strconv.Itoa(dataSeed),
		"-timeout", "5s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, addr: addr}
	children.Lock()
	if children.m == nil {
		children.m = map[*child]bool{}
	}
	children.m[c] = true
	children.Unlock()

	exited := make(chan struct{})
	go func() {
		// Wait is called exactly once, here; stop waits on exited.
		_ = cmd.Wait() // the exit status of a killed child says nothing
		close(exited)
	}()
	c.waitExit = exited

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			c.stop()
			return nil, fmt.Errorf("emdserve exited before serving: %s", stderr.String())
		default:
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.stop()
	return nil, fmt.Errorf("emdserve did not answer /healthz within 60s: %s", stderr.String())
}

// stop kills the child and returns once it has been reaped.
func (c *child) stop() {
	c.once.Do(func() {
		_ = c.cmd.Process.Kill() // already-exited is fine
		<-c.waitExit
		children.Lock()
		delete(children.m, c)
		children.Unlock()
	})
}

// procCPU returns the user+system CPU time pid has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are
	// counted from the closing parenthesis.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the name", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procPeakRSS returns pid's VmHWM, its peak resident set, in MiB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current
// resident set, so that peak_rss_mb covers the set that is measured
// and not the discarded set-up repeats before it. Best effort: where
// the kernel refuses, the peak simply covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
