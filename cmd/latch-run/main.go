// Command latch-run assembles and executes an LA32 program on the virtual
// machine, optionally under byte-precise DIFT with the LATCH coarse state
// attached, and reports execution statistics and any policy violations.
//
// Usage:
//
//	latch-run -prog overflow -file-hex 414141...   # built-in program
//	latch-run -src prog.s -file "input data"       # program from a file
//	latch-run -list                                # list built-in programs
//	latch-run -prog pipeline -cpuprofile cpu.pb.gz # profile the simulator
//
// Taint sources: -file supplies SysRead data, -request (repeatable) supplies
// one inbound connection each for SysAccept/SysRecv.
//
// Policies: -policy overlays a JSON taint policy (see latch.Policy) onto the
// default; -sample F and -sample-seed S arm the deterministic source sampler
// (selective tracing) without a policy file. Both compose with -backend,
// where the sampler selects which of the workload's taint runs are traced.
//
// Observability: -telemetry prints the telemetry registry (see
// internal/telemetry) after the run; -cpuprofile and -memprofile write pprof
// profiles of the simulator itself; -expvar serves /debug/vars (including
// the live latch registry) and /debug/pprof on the given address for the
// duration of the run.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"latch"
	"latch/internal/cosim"
	"latch/internal/isa"
	"latch/internal/slatch"
	"latch/internal/workload"
)

type requestList [][]byte

func (r *requestList) String() string { return fmt.Sprintf("%d requests", len(*r)) }
func (r *requestList) Set(s string) error {
	*r = append(*r, []byte(s))
	return nil
}

// main delegates to run so deferred profile writers execute before exit.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		list       = flag.Bool("list", false, "list built-in programs and exit")
		progName   = flag.String("prog", "", "built-in program name")
		srcPath    = flag.String("src", "", "path to an LA32 assembly file")
		fileData   = flag.String("file", "", "file-source input data (string)")
		fileHex    = flag.String("file-hex", "", "file-source input data (hex)")
		disasm     = flag.Bool("disasm", false, "print the disassembly and exit")
		noDift     = flag.Bool("no-dift", false, "run without DIFT tracking")
		coSLatch   = flag.Bool("slatch", false, "co-simulate the full S-LATCH two-mode protocol")
		backend    = flag.String("backend", "", "run a registered backend over a calibrated workload (see -workload)")
		workloadNm = flag.String("workload", "gcc", "calibrated workload profile for -backend")
		events     = flag.Uint64("events", 2_000_000, "stream length in instructions for -backend")
		listBack   = flag.Bool("list-backends", false, "list registered backends and exit")
		leak       = flag.Bool("check-leak", false, "enable the output-leak check")
		polPath    = flag.String("policy", "", "JSON taint-policy file overlaid onto the default policy")
		sampleFrac = flag.Float64("sample", -1, "source-sampling fraction in [0,1] (selective tracing); 1 traces every source")
		sampleSeed = flag.Uint64("sample-seed", 0, "sampler seed for -sample (or to override a -policy file's seed)")
		saveTnt    = flag.String("save-taint", "", "write a taint snapshot after the run")
		maxSteps   = flag.Uint64("max-steps", 10_000_000, "instruction budget")
		deadline   = flag.Duration("deadline", 0, "wall-clock budget for the run (0 = none)")
		telemetry  = flag.Bool("telemetry", false, "print the telemetry registry after the run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		expvarAddr = flag.String("expvar", "", "serve /debug/vars and /debug/pprof on this address during the run")
		requests   requestList
	)
	flag.Var(&requests, "request", "inbound request data (repeatable)")
	flag.Parse()

	if err := checkFlagConflicts(flagSet{
		Prog:     *progName,
		Src:      *srcPath,
		File:     *fileData,
		FileHex:  *fileHex,
		Backend:  *backend,
		SaveTnt:  *saveTnt,
		Requests: len(requests),
		Deadline: *deadline,
		SLatch:   *coSLatch,
		NoDift:   *noDift,
		Disasm:   *disasm,
		Policy:   *polPath,
		Sample:   *sampleFrac,
		Seed:     *sampleSeed,
	}); err != nil {
		return fail(err)
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if *list {
		for _, name := range workload.ProgramNames() {
			fmt.Println(name)
		}
		return 0
	}
	if *listBack {
		for _, name := range latch.Backends() {
			fmt.Println(name)
		}
		return 0
	}
	pol, polGiven, err := loadPolicy(*polPath, *sampleFrac, *sampleSeed, *leak)
	if err != nil {
		return fail(err)
	}

	if *backend != "" {
		var reqPol *latch.Policy
		if polGiven {
			reqPol = &pol
		}
		return runBackend(ctx, *backend, *workloadNm, *events, reqPol, *telemetry)
	}

	src, err := loadSource(*progName, *srcPath)
	if err != nil {
		return fail(err)
	}

	if *disasm {
		prog, err := assembleOrLoad(src)
		if err != nil {
			return fail(err)
		}
		fmt.Print(isa.Disassemble(prog))
		return 0
	}

	metrics := latch.NewMetrics()
	if *expvarAddr != "" {
		expvar.Publish("latch", expvar.Func(func() any { return metrics.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(*expvarAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "expvar server: %v\n", err)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	input := []byte(*fileData)
	if *fileHex != "" {
		var err error
		if input, err = hex.DecodeString(*fileHex); err != nil {
			return fail(fmt.Errorf("bad -file-hex: %w", err))
		}
	}

	if *coSLatch {
		return runCoSim(ctx, src, pol, input, requests, *maxSteps, metrics, *telemetry)
	}

	sys, err := latch.New(latch.WithPolicy(pol), latch.WithObserver(metrics))
	if err != nil {
		return fail(err)
	}
	if *noDift {
		sys.Machine.SetTracker(nil)
	}
	sys.Machine.Env.FileData = input
	sys.Machine.Env.Requests = requests

	prog, err := assembleOrLoad(src)
	if err != nil {
		return fail(err)
	}
	sys.Machine.Load(prog)
	_, runErr := sys.Machine.Run(ctx, *maxSteps)
	code := sys.Machine.ExitCode()

	fmt.Printf("instructions: %d\n", sys.Machine.Instret())
	if !*noDift {
		tainted, total := sys.Engine.InstructionsTainted(), sys.Engine.InstructionsTotal()
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(tainted) / float64(total)
		}
		fmt.Printf("tainted instructions: %d (%.3f%%)\n", tainted, pct)
		fmt.Printf("tainted bytes now: %d across %d pages (ever: %d pages)\n",
			sys.Shadow.TaintedBytes(), sys.Shadow.CurrentTaintedPages(), sys.Shadow.EverTaintedPages())
		fmt.Printf("coarse taint: %d domains in %d CTT words\n",
			sys.Module.CTT().TaintedDomains(), sys.Module.CTT().WordsAllocated())
	}
	if out := sys.Machine.Env.Output.String(); out != "" {
		fmt.Printf("output: %q\n", out)
	}
	if *saveTnt != "" && !*noDift {
		if err := writeSnapshot(*saveTnt, sys.Shadow); err != nil {
			return fail(err)
		}
		fmt.Printf("taint snapshot written to %s\n", *saveTnt)
	}
	if *telemetry {
		printTelemetry(metrics)
	}
	if runErr != nil {
		fmt.Printf("SECURITY EXCEPTION: %v\n", runErr)
		return 1
	}
	fmt.Printf("exit code: %d\n", code)
	return 0
}

// runBackend streams one calibrated workload through a registered backend
// and reports its scheme-agnostic result.
func runBackend(ctx context.Context, backend, workloadName string, events uint64, pol *latch.Policy, telemetry bool) int {
	metrics := latch.NewMetrics()
	res, err := latch.Run(ctx, latch.RunRequest{
		Backend:  backend,
		Workload: workloadName,
		Events:   events,
		Observer: metrics,
		Policy:   pol,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("backend %s on %s: %d events, %d checks\n",
		backend, res.BenchmarkName(), res.EventCount(), res.CheckCount())
	for _, c := range res.Columns() {
		fmt.Printf("  %s: %v\n", c.Label, c.Value)
	}
	if telemetry {
		printTelemetry(metrics)
	}
	return 0
}

// runCoSim executes the program under the full S-LATCH two-mode protocol
// (the slatch backend on a co-simulated machine) and reports the mode split
// and cycle accounting.
func runCoSim(ctx context.Context, src string, pol latch.Policy, input []byte, requests requestList,
	maxSteps uint64, metrics *latch.Metrics, telemetry bool) int {
	mon, err := cosim.NewMonitor("slatch", pol, metrics)
	if err != nil {
		return fail(err)
	}
	mon.Machine.Env.FileData = input
	mon.Machine.Env.Requests = requests
	prog, err := assembleOrLoad(src)
	if err != nil {
		return fail(err)
	}
	run, runErr := mon.RunProgram(ctx, prog, maxSteps)
	if run.Violation != nil {
		runErr = *run.Violation
	}
	res := mon.Result().(slatch.Result)
	st := mon.Session // returns and traps are session counters the result does not carry
	fmt.Printf("instructions: %d (hardware %d, software %d)\n",
		res.Events, res.HWInstrs, res.SWInstrs)
	fmt.Printf("mode switches: %d to software, %d returns; traps %d (%d dismissed as false positives)\n",
		res.Switches, st.Returns, st.Traps, res.FalsePositives)
	fmt.Printf("cycles: %d total over %d native (overhead %.1f%%; continuous DIFT would be %.1f%%)\n",
		res.TotalCycles(), res.Cycles.Base, 100*res.Overhead(), 100*res.LibdftOverhead())
	if out := mon.Machine.Env.Output.String(); out != "" {
		fmt.Printf("output: %q\n", out)
	}
	if telemetry {
		printTelemetry(metrics)
	}
	if runErr != nil {
		fmt.Printf("SECURITY EXCEPTION: %v\n", runErr)
		return 1
	}
	fmt.Printf("exit code: %d\n", mon.Machine.ExitCode())
	return 0
}

// printTelemetry dumps the registry as indented JSON, matching the shape
// latch-experiments -metrics writes.
func printTelemetry(m *latch.Metrics) {
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("telemetry: %s\n", data)
}

// writeSnapshot serializes the shadow taint state to path.
func writeSnapshot(path string, sh *latch.Shadow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := sh.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

// assembleOrLoad treats src as a serialized object file when it carries the
// LOBJ magic (latch-asm output passed via -src), assembly source otherwise.
func assembleOrLoad(src string) (*isa.Program, error) {
	if strings.HasPrefix(src, "LOBJ") {
		return isa.ReadObject(strings.NewReader(src))
	}
	return isa.Assemble(src)
}

// loadPolicy builds the run's effective taint policy: the default, with the
// -policy JSON file overlaid, the -check-leak/-sample/-sample-seed flags
// applied on top, and the result validated. given reports whether any policy
// flag was set at all, so callers that distinguish "no policy" from "the
// default policy" (RunRequest.Policy) can preserve the default pipeline.
func loadPolicy(path string, sample float64, seed uint64, leak bool) (latch.Policy, bool, error) {
	pol := latch.DefaultPolicy()
	given := path != "" || sample >= 0 || seed != 0
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return pol, given, err
		}
		if err := json.Unmarshal(data, &pol); err != nil {
			return pol, given, fmt.Errorf("bad -policy file: %w", err)
		}
	}
	if leak {
		pol.CheckLeak = true
	}
	if sample >= 0 {
		pol.Sampling.SampleFraction = sample
	}
	if seed != 0 {
		pol.Sampling.SampleSeed = seed
	}
	if err := pol.Validate(); err != nil {
		return pol, given, err
	}
	return pol, given, nil
}

// flagSet is the subset of latch-run's flags whose combinations can
// contradict each other.
type flagSet struct {
	Prog, Src, File, FileHex, Backend, SaveTnt string
	Requests                                   int
	Deadline                                   time.Duration
	SLatch, NoDift, Disasm                     bool
	Policy                                     string
	Sample                                     float64
	Seed                                       uint64
}

// checkFlagConflicts rejects contradictory flag combinations up front, so a
// conflicting flag fails loudly instead of being silently ignored.
func checkFlagConflicts(f flagSet) error {
	if f.Prog != "" && f.Src != "" {
		return fmt.Errorf("use either -prog or -src, not both")
	}
	if f.File != "" && f.FileHex != "" {
		return fmt.Errorf("use either -file or -file-hex, not both")
	}
	if f.SLatch && f.NoDift {
		return fmt.Errorf("-slatch co-simulates the DIFT protocol and cannot be combined with -no-dift")
	}
	if f.Backend != "" {
		// -backend streams a calibrated workload: no program, no program
		// input, and the scheme is chosen by name, not by mode flags.
		conflicts := []struct {
			set  bool
			name string
		}{
			{f.Prog != "", "-prog"},
			{f.Src != "", "-src"},
			{f.File != "", "-file"},
			{f.FileHex != "", "-file-hex"},
			{f.Requests > 0, "-request"},
			{f.SLatch, "-slatch"},
			{f.NoDift, "-no-dift"},
			{f.Disasm, "-disasm"},
			{f.SaveTnt != "", "-save-taint"},
		}
		for _, c := range conflicts {
			if c.set {
				return fmt.Errorf("-backend runs a calibrated workload stream and cannot be combined with %s", c.name)
			}
		}
	}
	if f.NoDift && f.SaveTnt != "" {
		return fmt.Errorf("-save-taint needs taint tracking and cannot be combined with -no-dift")
	}
	if f.NoDift && (f.Policy != "" || f.Sample >= 0 || f.Seed != 0) {
		return fmt.Errorf("-policy/-sample configure taint tracking and cannot be combined with -no-dift")
	}
	if f.Seed != 0 && f.Sample < 0 && f.Policy == "" {
		return fmt.Errorf("-sample-seed needs a sampler: give -sample or a -policy file with a sampling spec")
	}
	if f.Deadline < 0 {
		return fmt.Errorf("-deadline must be positive, got %v", f.Deadline)
	}
	return nil
}

func loadSource(progName, srcPath string) (string, error) {
	switch {
	case progName != "" && srcPath != "":
		return "", fmt.Errorf("use either -prog or -src, not both")
	case progName != "":
		return workload.ProgramSource(progName)
	case srcPath != "":
		data, err := os.ReadFile(srcPath)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	return "", fmt.Errorf("one of -prog or -src is required (see -list)")
}

// fail prints err and returns latch-run's usage-error exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}
