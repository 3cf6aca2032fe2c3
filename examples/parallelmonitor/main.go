// Parallel monitor: the P-LATCH two-core configuration (§5.2) on a real
// program. One core runs the application natively, shipping committed
// instructions through a bounded log FIFO to a second core that performs
// byte-precise DIFT. Without LATCH the log saturates and the application
// runs at the monitor's speed; with the LATCH filter only the instructions
// that might involve taint are shipped.
//
// The example also shows the cost of log-based monitoring the paper's
// baseline inherits: violations are detected with a lag, bounded by
// draining the log at output sync points.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"

	"latch/internal/platch"
	"latch/internal/policy"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

func run(filtered bool, input []byte, obs telemetry.Observer) (*platch.Parallel, error) {
	cfg := platch.DefaultParallelConfig()
	cfg.Filtered = filtered
	cfg.Observer = obs
	// A small FIFO makes backpressure visible on this short kernel: the
	// baseline fills it and stalls the monitored core; the filter doesn't.
	cfg.QueueDepth = 64
	sys, err := platch.NewParallel(cfg, policy.Default())
	if err != nil {
		return nil, err
	}
	sys.Machine.Env.FileData = input
	src, err := workload.ProgramSource("checksum")
	if err != nil {
		return nil, err
	}
	if _, err := sys.Run(context.Background(), src, 100_000); err != nil {
		return nil, err
	}
	return sys, nil
}

func main() {
	input := []byte("a realistic message body to checksum")

	fmt.Println("--- checksum kernel on two cores ---")
	for _, filtered := range []bool{false, true} {
		// A per-run telemetry registry counts log-FIFO stalls — cycles the
		// monitored core spends blocked on a full log.
		metrics := telemetry.NewMetrics()
		sys, err := run(filtered, input, metrics)
		if err != nil {
			log.Fatal(err)
		}
		st := sys.Stats()
		mode := "baseline LBA (ship everything)"
		if filtered {
			mode = "P-LATCH (coarse-filtered log)  "
		}
		fmt.Printf("%s: logged %4.1f%% of %d instructions, overhead %6.1f%%, max queue %d, stalls %d\n",
			mode, 100*float64(st.Enqueued)/float64(st.Instructions),
			st.Instructions, 100*st.Overhead(), st.MaxQueueDepth,
			metrics.Snapshot().QueueStalls)
	}

	fmt.Println()
	fmt.Println("--- deferred detection of a control-flow hijack ---")
	cfg := platch.DefaultParallelConfig()
	sys, err := platch.NewParallel(cfg, policy.Default())
	if err != nil {
		log.Fatal(err)
	}
	// The 4 bytes past the 16-byte buffer overwrite the function pointer
	// with the hijack target.
	const target = 0x1000
	sys.Machine.Env.FileData = binary.LittleEndian.AppendUint32(make([]byte, 16), target)
	src, err := workload.ProgramSource("overflow")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), src, 2_000); err != nil {
		fmt.Printf("machine stopped: %v\n", err)
	}
	for _, v := range sys.Violations() {
		fmt.Printf("monitor detected %v\n", v.Violation)
		fmt.Printf("  issued at instruction %d, detected at %d (lag %d instructions)\n",
			v.IssuedAt, v.DetectedAt, v.Lag())
		if v.Violation.Addr != target {
			log.Fatalf("monitor reported target %#x, the hijack jumped to %#x", v.Violation.Addr, target)
		}
	}
	if len(sys.Violations()) == 0 {
		log.Fatal("attack not detected")
	}
}
