package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"latch/internal/serve"
	"latch/internal/workload"
)

// The serve workload posts /v1/program jobs to an in-process httptest
// server (Workers 2, canary every 16th job, quotas off). The jobs are the
// repository's mini-programs — the co-simulation cases plus taintjump and
// overflow with hostile inputs, so violations stream — with seeded inputs.
// A job runs a few hundred instructions, so per-job set-up (latch.New,
// assembly, the canary's reference replay) dominates: the same vm and dift
// layers as program, under a very different job shape. Load comes in two
// phases over two connections: an open loop at serveRate, timed from each
// request's due time, then a closed loop of two clients for capacity.

// serveRate is the open-loop arrival rate in requests per second. The
// closed-loop capacity measured on a shared 2-CPU host when the benchmark
// was written swung between about 500 and 900 requests per second with the
// host's load, so the rate sits well below half of it: a slower host must
// not tip the open loop into a growing backlog.
const serveRate = 200.0

const (
	serveJobs        = 64   // distinct job bodies per seed
	serveMinOpen     = 1000 // open-loop requests, so p99 has 10 samples beyond it
	serveWarmJobs    = 32   // requests the set-up sends before timing
	serveClients     = 2
	serveCanaryEvery = 16    // the server replays every 16th job on the reference stack
	serveDeadline    = "10s" // a job past it fails; none comes close
)

// The closed loop is cut into serveWindows windows, and norm_ms_per_op is
// their median; the reference is sampled every serveSampleEvery during each.
const (
	serveWindows     = 20
	serveSampleEvery = 50 * time.Millisecond
)

// serveCase is one kind of job: a mini-program and its seeded inputs.
type serveCase struct {
	program string
	input   func(rng *rand.Rand) (file []byte, reqs [][]byte)
}

var serveCases = []serveCase{
	{"copyloop", fileInput(8, 40)},
	{"substitution", fileInput(8, 40)},
	{"parser", fileInput(8, 40)},
	{"server", netInput},
	{"overflow", fileInput(1, 15)}, // benign: fits the 16-byte buffer
	{"rle", fileInput(8, 40)},
	{"checksum", fileInput(8, 40)},
	{"caesar", fileInput(8, 40)},
	{"filter", fileInput(8, 40)},
	{"pipeline", fileInput(8, 40)},
	{"taintjump", fileInput(4, 4)},  // hostile: a tainted, non-zero dispatch offset
	{"overflow", fileInput(32, 32)}, // hostile: smashes the function pointer
}

func fileInput(lo, hi int) func(*rand.Rand) ([]byte, [][]byte) {
	return func(rng *rand.Rand) ([]byte, [][]byte) { return asciiBytes(rng, lo+rng.Intn(hi-lo+1)), nil }
}

func netInput(rng *rand.Rand) ([]byte, [][]byte) {
	reqs := make([][]byte, 4)
	for i := range reqs {
		reqs[i] = []byte(fmt.Sprintf("GET /page/%d HTTP/1.0", rng.Intn(1000)))
	}
	return nil, reqs
}

// serveJob is one job body together with the inputs it carries.
type serveJob struct {
	body     []byte
	src      string
	file     []byte
	requests [][]byte
}

// serveLoad returns the seeded job bodies; request i of a load sends job
// i mod serveJobs. Every seed has the same mix of cases — only the order
// and the inputs change — so seeds compare like for like.
func serveLoad(seed int64) ([]serveJob, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "serve")))
	jobs := make([]serveJob, serveJobs)
	for i, k := range rng.Perm(serveJobs) {
		c := serveCases[k%len(serveCases)]
		src, err := workload.ProgramSource(c.program)
		if err != nil {
			return nil, err
		}
		file, reqs := c.input(rng)
		wire := serve.ProgramJob{Source: src, Input: string(file), Deadline: serveDeadline}
		for _, q := range reqs {
			wire.Requests = append(wire.Requests, string(q))
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		jobs[i] = serveJob{body: body, src: src, file: file, requests: reqs}
	}
	return jobs, nil
}

// serveEnv is a running server with its client and the jobs it is sent.
type serveEnv struct {
	srv  *serve.Server
	ts   *httptest.Server
	hc   *http.Client
	jobs []serveJob
}

// startServer boots the server and sends the warm-up requests.
func startServer(jobs []serveJob) (*serveEnv, error) {
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: serveClients, CanaryEveryN: serveCanaryEvery})
	e := &serveEnv{
		srv:  srv,
		ts:   httptest.NewServer(srv),
		jobs: jobs,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients,
		}},
	}
	for i := 0; i < serveWarmJobs; i++ {
		if _, err := e.post(jobs[i%len(jobs)].body); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.hc.CloseIdleConnections()
	e.ts.Close()
	e.srv.Close()
}

// reply is what the client saw of one job.
type reply struct {
	sent, start, end time.Time // request sent; start and result lines read
	out              outcome
}

// ndjsonLine is the part of a response line the benchmark reads.
type ndjsonLine struct {
	Type      string `json:"type"`
	ExitCode  uint32 `json:"exit_code"`
	Steps     uint64 `json:"steps"`
	Output    string `json:"output"`
	Violation *struct {
		Kind string `json:"kind"`
		PC   uint32 `json:"pc"`
		Addr uint32 `json:"addr"`
	} `json:"violation"`
	Error string `json:"error"`
}

// post sends one job and reads its NDJSON stream to the terminal line.
func (e *serveEnv) post(body []byte) (reply, error) {
	rep := reply{sent: time.Now()}
	resp, err := e.hc.Post(e.ts.URL+"/v1/program", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	// Drain what is left so the connection is reused.
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var l ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return rep, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		switch l.Type {
		case "start":
			rep.start = time.Now()
		case "error":
			return rep, fmt.Errorf("error line: %s", l.Error)
		case "result":
			rep.end = time.Now()
			rep.out = outcome{exit: l.ExitCode, steps: l.Steps, output: l.Output}
			if v := l.Violation; v != nil {
				rep.out.violation = fmt.Sprintf("%s pc=%#x addr=%#x", v.Kind, v.PC, v.Addr)
			}
			return rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, fmt.Errorf("stream ended without a result line")
}

// sent is one request of a load: the job it carried and what came back.
type sent struct {
	job int
	rep reply
	err error
}

// serveResult is one load's client-side measurements.
type serveResult struct {
	open       []sent
	due        []time.Time // open-loop due times
	lateMs     []float64   // how late the generator handed each request over
	closed     []sent
	closedWall time.Duration
	allocBytes uint64 // heap allocated during the closed loop, both sides
	gcs        uint32
}

// openLoop sends n requests at serveRate over serveClients connections.
func (e *serveEnv) openLoop(n int) serveResult {
	res := serveResult{open: make([]sent, n), due: make([]time.Time, n), lateMs: make([]float64, n)}
	// The channel holds the whole schedule, so the generator never waits
	// for a busy connection: waiting requests queue here, charged to their
	// latency from the due time.
	work := make(chan int, n)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res.open[i].rep, res.open[i].err = e.post(e.jobs[i%len(e.jobs)].body)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		res.open[i].job = i % len(e.jobs)
		res.due[i] = start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		time.Sleep(time.Until(res.due[i]))
		res.lateMs[i] = ms(time.Since(res.due[i]))
		work <- i
	}
	close(work)
	wg.Wait()
	return res
}
