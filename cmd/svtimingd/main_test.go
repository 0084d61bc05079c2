package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemon is one running svtimingd process under test: its base URL and
// the live stderr line stream.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	logLines chan string
}

// startDaemon builds the real binary once per test and starts it on an
// ephemeral port, returning once the readiness line has announced the
// resolved address.
func startDaemon(t *testing.T, extraArgs ...string) *daemon {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "svtimingd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	d := &daemon{cmd: cmd, logLines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.logLines <- sc.Text()
		}
		close(d.logLines)
	}()

	// The daemon's readiness line carries the resolved ephemeral port.
	deadline := time.After(30 * time.Second)
	for d.base == "" {
		select {
		case line, ok := <-d.logLines:
			if !ok {
				t.Fatal("daemon exited before announcing readiness")
			}
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				d.base = "http://" + strings.TrimSpace(line[i+len("listening on http://"):])
			}
		case <-deadline:
			t.Fatal("timed out waiting for the readiness line")
		}
	}
	return d
}

// drainLogs collects the remaining stderr lines after the process exits.
func (d *daemon) drainLogs() string {
	var tail []string
	for line := range d.logLines {
		tail = append(tail, line)
	}
	return strings.Join(tail, "\n")
}

// TestServiceSmoke is the end-to-end daemon gate wired into `make ci`
// (the service-smoke target): build the real binary, start it on an
// ephemeral port, check liveness and readiness, send a 3-request batch,
// require the response bytes to match the service package's golden
// fixture — the same bytes the in-process handler tests pin, so "over a
// socket from a separate process" provably changes nothing — then shut
// down cleanly on SIGTERM with exit code 0 through the graceful drain.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the compiled daemon")
	}
	d := startDaemon(t)

	hz, err := http.Get(d.base + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
	// Without -warm, readiness is immediate: there is no warm-up gate to
	// hold the daemon out of rotation.
	rz, err := http.Get(d.base + "/v1/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d, want 200", rz.StatusCode)
	}

	reqBody, err := os.ReadFile(filepath.Join("..", "..", "internal", "service", "testdata", "batch_mixed.request.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "service", "testdata", "batch_mixed.response.golden"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+"/v1/batch", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("daemon batch response diverges from the service golden:\n got %s\nwant %s", got, want)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	tail := d.drainLogs()
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v (stderr tail: %s)", err, tail)
	}
	if !strings.Contains(tail, "draining") {
		t.Errorf("shutdown log missing the drain announcement:\n%s", tail)
	}
	if !strings.Contains(tail, "clean shutdown") {
		t.Errorf("shutdown log missing 'clean shutdown':\n%s", tail)
	}
}

// batchesAdmitted reads the daemon's service_batches_total counter.
func batchesAdmitted(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	return snap.Counters["service_batches_total"]
}

// TestDrainUnderStorm exercises the resilience surface on the real
// binary over real sockets: with a single admission slot and no queue,
// a long-running batch pins the service while (a) concurrent runs are
// shed with 429 + Retry-After in the JSON error schema, (b) SIGTERM
// lands mid-batch and flips readiness to 503 while the listener stays
// open, (c) new runs are refused with the draining 503, and (d) the
// pinned batch still completes before the daemon exits 0 — no request
// in flight is ever dropped by shutdown.
func TestDrainUnderStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the compiled daemon")
	}
	d := startDaemon(t,
		"-j", "1",
		"-max-inflight", "1",
		"-max-queue=-1",
		"-drain-timeout", "60s",
	)

	// Warm the flow so the pinning batch measures analysis, not
	// construction.
	warm, err := http.Post(d.base+"/v1/run", "application/json",
		strings.NewReader(`{"benchmarks":["c17"]}`))
	if err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm-up run: %d", warm.StatusCode)
	}

	// The pinning batch: 64 serial multi-benchmark items on -j 1 occupy
	// the single admission slot for seconds.
	items := make([]string, 64)
	for i := range items {
		items[i] = `{"benchmarks":["c432","c499","c880"],"on_fault":"collect"}`
	}
	batchBody := fmt.Sprintf(`{"requests":[%s]}`, strings.Join(items, ","))
	type batchResult struct {
		status int
		body   []byte
		err    error
	}
	batchDone := make(chan batchResult, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(d.base+"/v1/batch", "application/json", strings.NewReader(batchBody))
		if err != nil {
			batchDone <- batchResult{err: err}
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			err = rerr
		}
		batchDone <- batchResult{status: resp.StatusCode, body: body, err: err}
	}()

	// Probe only once the batch holds the slot: with one slot and no
	// queue, a probe that wins the race to admission sheds the batch
	// itself. runBatch counts service_batches_total only after admit,
	// and /v1/metrics bypasses admission, so polling it cannot steal the
	// slot. A batch that answers first never held the slot.
	for deadline := time.Now().Add(15 * time.Second); batchesAdmitted(t, d.base) < 1; {
		select {
		case res := <-batchDone:
			t.Fatalf("batch answered before it was admitted: status %d: %.200s (err %v)",
				res.status, res.body, res.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never admitted: service_batches_total stayed 0")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Wait until the batch actually holds the slot: a probe run must
	// come back 429 with Retry-After and the JSON error schema.
	var shedSeen bool
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Post(d.base+"/v1/run", "application/json",
			strings.NewReader(`{"benchmarks":["c17"]}`))
		if err != nil {
			t.Fatalf("probe run: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 missing Retry-After")
			}
			var refusal struct {
				Status int    `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(body, &refusal); err != nil || refusal.Status != 429 || refusal.Error == "" {
				t.Errorf("429 body not in the error schema: %s", body)
			}
			shedSeen = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !shedSeen {
		t.Fatal("never observed a 429 while the batch pinned the slot")
	}

	// SIGTERM mid-batch: readiness flips to 503 while the listener stays
	// open for the in-flight batch.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var drainingSeen bool
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(d.base + "/v1/readyz")
		if err != nil {
			break // listener closed: the batch finished before we caught the window
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			drainingSeen = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if drainingSeen {
		// While draining, a new run is refused with the draining 503 —
		// the listener must still be accepting connections.
		resp, err := http.Post(d.base+"/v1/run", "application/json",
			strings.NewReader(`{"benchmarks":["c17"]}`))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("run during drain: status %d, want 503: %s", resp.StatusCode, body)
			} else {
				if ra := resp.Header.Get("Retry-After"); ra == "" {
					t.Error("draining 503 missing Retry-After")
				}
				if !strings.Contains(string(body), "draining") {
					t.Errorf("draining 503 body: %s", body)
				}
			}
		}
	}

	// The pinned batch must complete despite the drain.
	wg.Wait()
	res := <-batchDone
	if res.err != nil {
		t.Fatalf("in-flight batch dropped during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight batch: status %d: %.200s", res.status, res.body)
	}

	tail := d.drainLogs()
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after drain-under-storm: %v (stderr tail: %s)", err, tail)
	}
	if !strings.Contains(tail, "draining") {
		t.Errorf("log missing the drain announcement:\n%s", tail)
	}
	if !strings.Contains(tail, "clean shutdown") {
		t.Errorf("log missing 'clean shutdown':\n%s", tail)
	}
	if !drainingSeen {
		t.Log("note: batch finished before the drain window could be probed; refusal path covered in-process")
	}
}
