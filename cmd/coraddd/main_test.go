package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"coradd/internal/query"
	"coradd/internal/ssb"
)

// The restart property, across a REAL process boundary: a daemon killed
// after every build ordinal k of an adaptive migration (exit 3 via
// -crash-after-builds) and restarted against its checkpoint must replay
// the interrupted migration's identical cumulative build sequence and
// land on its identical deployed design, compared against a daemon that
// was never killed. This is the process-level twin of internal/durable's
// TestCrashCheckpointResumeProperty — same scope, too: the property is
// per interrupted migration. Redesigns AFTER the resumed migration may
// legitimately differ from the reference run (the crash abandons the
// remainder of the observation that was in flight, so later drift checks
// see a slightly different monitor state); the in-process property makes
// the same choice, driving each resumed controller only until its
// migration completes.

// daemon wraps one coraddd process under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	exit chan error // receives cmd.Wait exactly once
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "coraddd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building coraddd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary on an ephemeral port, parses the
// listen address from its log, and waits for readiness.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-rows", "6000"}, args...)...)
	// Same solver-node cap as the internal/server and internal/adapt
	// test envs: at this scale the search proves identical optima within
	// 200k nodes, ~5x faster, keeping dozens of daemon lives affordable.
	cmd.Env = append(os.Environ(), "CORADD_SOLVER_MAXNODES=200000")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, exit: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	go func() { d.exit <- cmd.Wait() }()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case err := <-d.exit:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never reported its listen address")
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case err := <-d.exit:
			t.Fatalf("daemon exited during boot: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	cmd.Process.Kill()
	t.Fatal("daemon never became ready")
	return nil
}

// exitCode waits for the process to die and returns its exit code.
func (d *daemon) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case err := <-d.exit:
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("daemon wait: %v", err)
	case <-time.After(2 * time.Minute):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not exit")
	}
	return -1
}

// status is the subset of /statusz the property reads.
type status struct {
	Observed  int64    `json:"observed"`
	Design    string   `json:"design"`
	Deployed  string   `json:"deployed"`
	Migrating bool     `json:"migrating"`
	Solving   bool     `json:"solving"`
	Builds    []string `json:"builds"`
}

func (d *daemon) status() (*status, error) {
	resp, err := http.Get(d.url + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// designKeys fetches the deployed design's structural keys via /design.
func (d *daemon) designKeys(t *testing.T) []string {
	t.Helper()
	resp, err := http.Get(d.url + "/design")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Objects []struct {
			Key string `json:"key"`
		} `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(doc.Objects))
	for i, o := range doc.Objects {
		keys[i] = o.Key
	}
	sort.Strings(keys)
	return keys
}

// tracker accumulates the cumulative build sequence across status
// samples (and across process lives): /statusz reports the current
// journal's completed builds, so growth appends and a reset (new
// migration) appends from scratch.
type tracker struct {
	events []string
	prev   []string
}

func (tr *tracker) observe(builds []string) {
	ext := len(builds) >= len(tr.prev)
	if ext {
		for i := range tr.prev {
			if tr.prev[i] != builds[i] {
				ext = false
				break
			}
		}
	}
	if ext {
		tr.events = append(tr.events, builds[len(tr.prev):]...)
	} else {
		tr.events = append(tr.events, builds...)
	}
	tr.prev = append([]string(nil), builds...)
}

// migDone snapshots the daemon's state at the completion of one
// migration: the cumulative build sequence up to and including it, plus
// the design that serves from that point.
type migDone struct {
	events   []string
	deployed string
	keys     []string
}

// drive sends stream[from:] one query at a time, waiting after each for
// the controller to consume the observation and land every solve it
// issued, so the adaptive timeline is deterministic, and feeding every
// status sample to the tracker. When
// dones is non-nil, a Migrating true→false transition records a migDone
// snapshot. If the daemon dies mid-stream (injected crash) it returns
// the index of the first UNCONSUMED event and alive=false.
func drive(t *testing.T, d *daemon, tr *tracker, stream []*query.Query, from int, dones *[]migDone) (next int, alive bool) {
	t.Helper()
	var consumed int64
	prevMig := false
	for i := from; i < len(stream); i++ {
		body, err := json.Marshal(stream[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(d.url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			// Connection refused: the daemon died before consuming event i.
			return i, false
		}
		if resp.StatusCode != http.StatusOK {
			b := new(bytes.Buffer)
			b.ReadFrom(resp.Body)
			resp.Body.Close()
			t.Fatalf("event %d: status %d: %s", i+1, resp.StatusCode, b.String())
		}
		resp.Body.Close()
		consumed++
		for {
			st, err := d.status()
			if err != nil {
				// The daemon crashed while processing event i — the
				// observation was consumed (the crash checkpoint includes
				// its effects), so the resumed life continues at i+1.
				return i + 1, false
			}
			tr.observe(st.Builds)
			if dones != nil && prevMig && !st.Migrating {
				*dones = append(*dones, migDone{
					events:   append([]string(nil), tr.events...),
					deployed: st.Deployed,
					keys:     d.designKeys(t),
				})
			}
			prevMig = st.Migrating
			if st.Observed >= consumed && !st.Solving {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return len(stream), true
}

// driveUntilIdle sends stream[from:] one event at a time, in drive's
// lockstep, until the in-flight migration completes (the post-event status shows
// Migrating=false), feeding the tracker throughout. The stream running
// out with the migration still in flight is fatal.
func driveUntilIdle(t *testing.T, d *daemon, tr *tracker, stream []*query.Query, from int) {
	t.Helper()
	var consumed int64
	for i := from; i < len(stream); i++ {
		body, err := json.Marshal(stream[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(d.url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("resumed daemon died at event %d: %v", i+1, err)
		}
		if resp.StatusCode != http.StatusOK {
			b := new(bytes.Buffer)
			b.ReadFrom(resp.Body)
			resp.Body.Close()
			t.Fatalf("event %d: status %d: %s", i+1, resp.StatusCode, b.String())
		}
		resp.Body.Close()
		consumed++
		for {
			st, err := d.status()
			if err != nil {
				t.Fatalf("resumed daemon died at event %d: %v", i+1, err)
			}
			tr.observe(st.Builds)
			if st.Observed >= consumed && !st.Solving {
				if !st.Migrating {
					return
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	t.Fatal("stream exhausted with the resumed migration still in flight")
}

// sigterm drains the daemon gracefully and requires exit 0.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.exitCode(t); code != 0 {
		t.Fatalf("SIGTERM drain exited %d, want 0", code)
	}
}

// driftStream is the base→augmented query mix that drives the daemon
// through a migration, sent as full query documents.
func driftStream() []*query.Query {
	base := ssb.Queries()
	aug := ssb.AugmentedQueries()
	var out []*query.Query
	for i := 0; i < 39; i++ {
		out = append(out, base[i%len(base)])
	}
	for i := 0; i < 156; i++ {
		out = append(out, aug[i%len(aug)])
	}
	return out
}

func TestRestartPropertyAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute multi-process property test")
	}
	bin := buildDaemon(t)
	stream := driftStream()

	// Reference: one uninterrupted life (checkpointing all along), drained
	// with SIGTERM, recording a snapshot at every migration completion.
	refDir := t.TempDir()
	ref := startDaemon(t, bin, "-checkpoint", filepath.Join(refDir, "cp"))
	refTr := &tracker{}
	var refDones []migDone
	if next, alive := drive(t, ref, refTr, stream, 0, &refDones); !alive || next != len(stream) {
		t.Fatalf("reference daemon died at event %d", next)
	}
	ref.sigterm(t)
	if len(refDones) == 0 {
		t.Fatal("reference run completed no migration — the property has nothing to kill at")
	}
	// Ordinals inside a migration the stream never finishes have no
	// reference completion state to compare against; the kill points are
	// the builds of the completed migrations.
	total := len(refDones[len(refDones)-1].events)
	t.Logf("reference: %d completed migrations, %d kill ordinals %v",
		len(refDones), total, refDones[len(refDones)-1].events)

	// Property: kill after every build ordinal, restart, drive the resumed
	// migration to completion, compare against the reference's state at
	// that same migration's completion.
	for k := 1; k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-after-build-%d", k), func(t *testing.T) {
			var want migDone
			for _, md := range refDones {
				if len(md.events) >= k {
					want = md
					break
				}
			}

			dir := t.TempDir()
			ckpt := filepath.Join(dir, "cp")
			tr := &tracker{}

			d1 := startDaemon(t, bin, "-checkpoint", ckpt, "-crash-after-builds", fmt.Sprint(k))
			next, alive := drive(t, d1, tr, stream, 0, nil)
			if alive {
				t.Fatalf("daemon survived the whole stream; crash at build %d never fired", k)
			}
			if code := d1.exitCode(t); code != 3 {
				t.Fatalf("crashed daemon exited %d, want 3", code)
			}

			d2 := startDaemon(t, bin, "-checkpoint", ckpt)
			resp, err := http.Get(d2.url + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			var ready struct {
				Resumed bool `json:"resumed"`
			}
			json.NewDecoder(resp.Body).Decode(&ready)
			resp.Body.Close()
			if !ready.Resumed {
				t.Error("restarted daemon does not report resumed=true")
			}
			// Crash contract (server.loop): the dying process publishes
			// nothing about the Process call that crashed it, so its last
			// observable state is the one before build k.
			if !slices.Equal(tr.events, want.events[:k-1]) {
				t.Errorf("crashed life exposed more than the %d builds before the kill:\n  saw: %v\n  reference: %v",
					k-1, tr.events, want.events)
			}
			// What survives is exactly the checkpoint. When build k was its
			// migration's last, the controller finished the migration
			// before the crash surfaced: the checkpoint is idle, holds the
			// final design and no journal, and build k is visible nowhere
			// but in that design. Otherwise the checkpoint is mid-migration
			// and its journal carries build k.
			lastOfMigration := len(want.events) == k
			st, err := d2.status()
			if err != nil {
				t.Fatal(err)
			}
			if st.Migrating == lastOfMigration {
				t.Fatalf("resumed daemon migrating=%v after a kill at build %d of %d", st.Migrating, k, len(want.events))
			}
			tr.observe(st.Builds)
			wantEvents := want.events
			if lastOfMigration {
				wantEvents = wantEvents[:k-1]
			} else {
				driveUntilIdle(t, d2, tr, stream, next)
			}
			st2, err := d2.status()
			if err != nil {
				t.Fatal(err)
			}
			keys := d2.designKeys(t)
			d2.sigterm(t)

			if !slices.Equal(tr.events, wantEvents) {
				t.Errorf("build sequence diverged:\n  kill@%d: %v\n  reference: %v", k, tr.events, wantEvents)
			}
			if st2.Deployed != want.deployed {
				t.Errorf("deployed design %s, reference %s", st2.Deployed, want.deployed)
			}
			if !reflect.DeepEqual(keys, want.keys) {
				t.Errorf("deployed object keys diverged from the reference run:\n  kill@%d: %v\n  reference: %v", k, keys, want.keys)
			}
		})
	}
}
