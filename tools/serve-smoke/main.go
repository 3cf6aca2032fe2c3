// Command serve-smoke is the CI smoke test for cmd/latch-serve: it builds
// the real binary, boots it on a local port, exercises the serving surface
// end to end — health, a clean program job, a job tainting the top page of
// the address space followed by the clean job again, a body one byte over
// the job cap on both job endpoints followed by the clean job again, a wild
// jump into never-mapped memory followed by the clean job again, a hijack
// (violation) job, a workload-replay job, the canary report, expvar —
// and then shuts the process down with SIGTERM to check the graceful-drain
// path. Run via `make serve-smoke`.
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
	"reflect"
	"strings"
	"syscall"
	"time"
)

const addr = "127.0.0.1:18341"

// maxJobBytes is latch-serve's fixed cap on a job request body.
const maxJobBytes = 1 << 20

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: OK")
}

func run() error {
	dir, err := os.MkdirTemp("", "latch-serve-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "latch-serve")

	build := exec.Command("go", "build", "-o", bin, "./cmd/latch-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}

	srv := exec.Command(bin, "-addr", addr, "-canary", "1", "-queue", "4", "-workers", "2")
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start: %w", err)
	}
	defer srv.Process.Kill()

	base := "http://" + addr
	if err := waitHealthy(base); err != nil {
		return err
	}

	// A clean program job must stream start + result.
	clean := map[string]any{
		"source": "movi r1, 3\n sys 1",
	}
	lines, err := postJob(base+"/v1/program", clean)
	if err != nil {
		return fmt.Errorf("clean program job: %w", err)
	}
	final := lines[len(lines)-1]
	if final["type"] != "result" || final["exit_code"] != float64(3) {
		return fmt.Errorf("clean program result: %v", final)
	}

	// A job tainting the top page of the address space grows its System's
	// coarse tables past the geometry's span, so its worker drops that
	// System; the clean job after it must still stream start + result and
	// match its first run, on whichever worker takes it.
	topPage := map[string]any{
		"source": "li r1, 0xFFFFF000\n movi r2, 16\n sys 2\n li r3, 0xFFFFF000\n ldw r4, [r3]\n movi r1, 0\n sys 1",
		"input":  "0123456789abcdef",
	}
	if _, err := programResult(base, topPage); err != nil {
		return fmt.Errorf("top-page job: %w", err)
	}
	again, err := programResult(base, clean)
	if err != nil {
		return fmt.Errorf("clean job after the top-page job: %w", err)
	}
	if !reflect.DeepEqual(withoutElapsed(again), withoutElapsed(final)) {
		return fmt.Errorf("clean job after the top-page job: %v, first run %v", again, final)
	}

	// A body one byte over the cap must be refused with 413 on both job
	// endpoints before it is accepted into the queue, and the clean job
	// after it must still match its first run.
	acceptedBefore, err := accepted(base)
	if err != nil {
		return err
	}
	oversized := []byte(`{"source":"` + strings.Repeat(" ", maxJobBytes+1-len(`{"source":""}`)) + `"}`)
	for _, path := range []string{"/v1/program", "/v1/run"} {
		code, err := postStatus(base+path, oversized)
		if err != nil {
			return fmt.Errorf("oversized body to %s: %w", path, err)
		}
		if code != http.StatusRequestEntityTooLarge {
			return fmt.Errorf("oversized body to %s: status %d, want %d", path, code, http.StatusRequestEntityTooLarge)
		}
	}
	acceptedAfter, err := accepted(base)
	if err != nil {
		return err
	}
	if acceptedAfter != acceptedBefore {
		return fmt.Errorf("oversized bodies moved accepted from %d to %d", acceptedBefore, acceptedAfter)
	}
	again, err = programResult(base, clean)
	if err != nil {
		return fmt.Errorf("clean job after the oversized bodies: %w", err)
	}
	if !reflect.DeepEqual(withoutElapsed(again), withoutElapsed(final)) {
		return fmt.Errorf("clean job after the oversized bodies: %v, first run %v", again, final)
	}

	// A jump into a never-mapped page must end at its first fetch with an
	// error naming it — not run to its huge step budget or its deadline —
	// and the clean job after it must still match its first run.
	wild := map[string]any{
		"source":    "li r1, 0x40000000\n jr r1",
		"max_steps": uint64(1) << 40,
		"deadline":  "2s",
	}
	lines, err = postJob(base+"/v1/program", wild)
	if err != nil {
		return fmt.Errorf("wild-jump job: %w", err)
	}
	if last := lines[len(lines)-1]; last["type"] != "error" ||
		!strings.Contains(fmt.Sprint(last["error"]), "instruction fetch from unmapped page") {
		return fmt.Errorf("wild-jump job: want an unmapped-fetch error line, got %v", last)
	}
	again, err = programResult(base, clean)
	if err != nil {
		return fmt.Errorf("clean job after the wild jump: %w", err)
	}
	if !reflect.DeepEqual(withoutElapsed(again), withoutElapsed(final)) {
		return fmt.Errorf("clean job after the wild jump: %v, first run %v", again, final)
	}

	// A hijack must stream the violation live and in the result.
	hijack := map[string]any{
		"source": "li r1, 0x3000\n movi r2, 4\n sys 2\n li r3, 0x3000\n ldw r4, [r3]\n jr r4\n halt",
		"input":  "\x00\x20\x00\x00",
	}
	lines, err = postJob(base+"/v1/program", hijack)
	if err != nil {
		return fmt.Errorf("hijack job: %w", err)
	}
	var sawViolation bool
	for _, l := range lines {
		if l["type"] == "violation" {
			sawViolation = true
		}
	}
	if !sawViolation {
		return fmt.Errorf("hijack violation not streamed: %v", lines)
	}

	// A workload-replay job through a registered backend.
	replay := map[string]any{
		"backend": "slatch", "workload": "gcc", "events": 50_000,
	}
	lines, err = postJob(base+"/v1/run", replay)
	if err != nil {
		return fmt.Errorf("workload job: %w", err)
	}
	if final := lines[len(lines)-1]; final["type"] != "result" {
		return fmt.Errorf("workload result: %v", final)
	}

	// The canary shadow-ran every program job and must report agreement.
	var canary struct {
		Checked     uint64           `json:"checked"`
		Divergences []map[string]any `json:"divergences"`
	}
	if err := getJSON(base+"/debug/canary", &canary); err != nil {
		return err
	}
	if canary.Checked < 4 {
		return fmt.Errorf("canary checked %d jobs, want >= 4", canary.Checked)
	}
	if len(canary.Divergences) != 0 {
		return fmt.Errorf("canary divergences: %v", canary.Divergences)
	}

	// The program jobs ran clean epochs, so the service-lifetime fast-loop
	// aggregates on the stats surface must be live.
	var stats struct {
		FastLoopEntries uint64 `json:"fast_loop_entries"`
		FastLoopSteps   uint64 `json:"fast_loop_steps"`
	}
	if err := getJSON(base+"/debug/stats", &stats); err != nil {
		return err
	}
	if stats.FastLoopEntries == 0 || stats.FastLoopSteps == 0 {
		return fmt.Errorf("fast-loop aggregates missing from /debug/stats: %+v", stats)
	}

	for _, path := range []string{"/v1/backends", "/debug/stats", "/debug/vars"} {
		resp, err := http.Get(base + path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// Graceful drain: SIGTERM must exit cleanly.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exit after SIGTERM: %w", err)
		}
	case <-time.After(20 * time.Second):
		return fmt.Errorf("server did not drain within 20s of SIGTERM")
	}
	return nil
}

// programResult posts a program job and returns its result line, requiring
// the stream to open with start and end with result.
func programResult(base string, job map[string]any) (map[string]any, error) {
	lines, err := postJob(base+"/v1/program", job)
	if err != nil {
		return nil, err
	}
	if lines[0]["type"] != "start" || lines[len(lines)-1]["type"] != "result" {
		return nil, fmt.Errorf("stream %v", lines)
	}
	return lines[len(lines)-1], nil
}

// withoutElapsed copies a result line without its wall-clock field.
func withoutElapsed(line map[string]any) map[string]any {
	out := make(map[string]any, len(line))
	for k, v := range line {
		if k != "elapsed" {
			out[k] = v
		}
	}
	return out
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server never became healthy on %s", base)
}

func postJob(url string, body any) ([]map[string]any, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty stream")
	}
	return lines, nil
}

// postStatus posts a raw JSON body and returns the response status.
func postStatus(url string, body []byte) (int, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// accepted reads the server's accepted-job counter from /debug/stats.
func accepted(base string) (uint64, error) {
	var stats struct {
		Accepted uint64 `json:"accepted"`
	}
	err := getJSON(base+"/debug/stats", &stats)
	return stats.Accepted, err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
