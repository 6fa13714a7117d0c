package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the product module (`module coradd`); the harness runs
// with bench/ as its working directory under `go run -C bench`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module coradd\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring `module coradd` above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/coraddd from source into outDir and returns
// the binary path and how long the build took (reported apart from every
// setup_s as harness.build_s).
func buildDaemon(root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "coraddd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/coraddd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/coraddd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// children tracks every live daemon so a failing or signalled harness can
// kill them all before it exits.
var children struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func killAllChildren() {
	children.mu.Lock()
	ds := make([]*daemon, 0, len(children.live))
	for d := range children.live {
		ds = append(ds, d)
	}
	children.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one running coraddd child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	logFile *os.File
	started time.Time
	once    sync.Once
}

var listenLine = regexp.MustCompile(`listening on (\S+:\d+)`)

const readyTimeout = 60 * time.Second

// startDaemon executes the binary on a free port (-addr 127.0.0.1:0; the
// port is read back from the daemon's "listening on" log line), with
// stderr appended to logPath, and waits for /readyz 200. The returned
// duration is exec → ready.
func startDaemon(bin, logPath string, env []string, args ...string) (*daemon, time.Duration, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	offset, err := logFile.Seek(0, io.SeekEnd)
	if err != nil {
		logFile.Close()
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logFile
	cmd.Env = append(os.Environ(), env...)
	// The child must not outlive a harness that dies without running its
	// cleanup (SIGKILL, panic in another goroutine).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, logPath: logPath, logFile: logFile, started: time.Now()}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, err
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = make(map[*daemon]bool)
	}
	children.live[d] = true
	children.mu.Unlock()

	deadline := d.started.Add(readyTimeout)
	for d.url == "" {
		if time.Now().After(deadline) {
			return nil, 0, d.fail("no \"listening on\" line within %s", readyTimeout)
		}
		data, err := os.ReadFile(logPath)
		if err == nil && int64(len(data)) > offset {
			if m := listenLine.FindSubmatch(data[offset:]); m != nil {
				d.url = "http://" + string(m[1])
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(d.started), nil
			}
		}
		if time.Now().After(deadline) {
			return nil, 0, d.fail("/readyz not 200 within %s", readyTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fail kills the child and returns an error carrying its stderr tail.
func (d *daemon) fail(format string, args ...any) error {
	d.kill()
	return fmt.Errorf("coraddd: %s; stderr tail:\n%s", fmt.Sprintf(format, args...), tailOf(d.logPath, 15))
}

func tailOf(path string, lines int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return strings.Join(all[max(0, len(all)-lines):], "\n")
}

// kill SIGKILLs the child and waits until it has ended. Idempotent.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		d.logFile.Close()
		children.mu.Lock()
		delete(children.live, d)
		children.mu.Unlock()
	})
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM of /proc/<pid>/status ("self" for the harness).
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// daemonStatus is the part of /statusz the harness reads.
type daemonStatus struct {
	Ready      bool  `json:"ready"`
	Resumed    bool  `json:"resumed"`
	Served     int64 `json:"served"`
	Observed   int64 `json:"observed"`
	Dropped    int64 `json:"dropped"`
	Shed       int64 `json:"shed"`
	Timeouts   int64 `json:"timeouts"`
	Migrating  bool  `json:"migrating"`
	BuildsDone int   `json:"builds_done"`
	Redesigns  int   `json:"redesigns"`
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) status() (daemonStatus, error) {
	var st daemonStatus
	err := d.getJSON("/statusz", &st)
	return st, err
}

// designKeys returns the structural keys of the serving design's objects,
// in the order /design lists them.
func (d *daemon) designKeys() ([]string, error) {
	var v struct {
		Objects []struct {
			Key string `json:"key"`
		} `json:"objects"`
	}
	if err := d.getJSON("/design", &v); err != nil {
		return nil, err
	}
	keys := make([]string, len(v.Objects))
	for i, o := range v.Objects {
		keys[i] = o.Key
	}
	return keys, nil
}

// scrape fetches /metrics and returns the named series' values (absent
// series read as 0).
func (d *daemon) scrape(series ...string) (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(series))
	for _, line := range strings.Split(string(body), "\n") {
		for _, s := range series {
			if rest, ok := strings.CutPrefix(line, s+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return nil, fmt.Errorf("series %s: %v", s, err)
				}
				out[s] = v
			}
		}
	}
	return out, nil
}
