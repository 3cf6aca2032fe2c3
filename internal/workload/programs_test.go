package workload

import (
	"context"
	"errors"
	"testing"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/vm"
)

func runProgram(t *testing.T, name string, pol policy.Policy, env func(*vm.Env)) (*vm.CPU, *dift.Engine, error) {
	t.Helper()
	src, err := ProgramSource(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("%s does not assemble: %v", name, err)
	}
	eng := dift.NewEngine(shadow.MustNew(shadow.DefaultDomainSize), pol)
	c := vm.New()
	c.SetTracker(eng)
	if env != nil {
		env(c.Env)
	}
	c.Load(prog)
	_, err = c.Run(context.Background(), 1_000_000)
	return c, eng, err
}

func TestProgramNames(t *testing.T) {
	names := ProgramNames()
	if len(names) != 12 {
		t.Fatalf("programs = %v", names)
	}
	if _, err := ProgramSource("nope"); err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestAllProgramsAssemble(t *testing.T) {
	for _, name := range ProgramNames() {
		src, _ := ProgramSource(name)
		if _, err := isa.Assemble(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCopyloopPropagatesTaint(t *testing.T) {
	c, eng, err := runProgram(t, "copyloop", policy.Default(), func(e *vm.Env) {
		e.FileData = []byte("hello world!")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Env.Output.String(); got != "hello world!" {
		t.Fatalf("output = %q", got)
	}
	// Both source and destination buffers are tainted.
	if !eng.Shadow.RangeTainted(0x8000, 12) || !eng.Shadow.RangeTainted(0x9000, 12) {
		t.Fatal("copy did not propagate taint")
	}
}

func TestCopyloopLeaksUnderLeakPolicy(t *testing.T) {
	pol := policy.Default()
	pol.CheckLeak = true
	_, _, err := runProgram(t, "copyloop", pol, func(e *vm.Env) {
		e.FileData = []byte("secret")
	})
	var v dift.Violation
	if !errors.As(err, &v) || v.Kind != dift.ViolationLeak {
		t.Fatalf("err = %v, want leak violation", err)
	}
}

func TestSubstitutionLaundersTaint(t *testing.T) {
	// Even under a leak-checking policy the substituted output is clean:
	// classical DTA does not track address-based flows (§3.3.2).
	pol := policy.Default()
	pol.CheckLeak = true
	c, eng, err := runProgram(t, "substitution", pol, func(e *vm.Env) {
		e.FileData = []byte{1, 2, 3, 4}
	})
	if err != nil {
		t.Fatalf("substitution flagged a leak: %v", err)
	}
	// Output bytes are table values (i*7+3)&0xFF of the input bytes.
	want := []byte{10, 17, 24, 31}
	got := c.Env.Output.Bytes()
	if string(got) != string(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	if eng.Shadow.RangeTainted(0x9000, 4) {
		t.Fatal("substituted output is tainted")
	}
	if !eng.Shadow.RangeTainted(0x8000, 4) {
		t.Fatal("input lost taint")
	}
}

func TestServerHandlesRequests(t *testing.T) {
	c, eng, err := runProgram(t, "server", policy.Default(), func(e *vm.Env) {
		e.Requests = [][]byte{[]byte("GET /index"), []byte("GET /about")}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Env.Output.String(); got != "OK!\nOK!\n" {
		t.Fatalf("output = %q", got)
	}
	if !eng.Shadow.RangeTainted(0x8000, 8) {
		t.Fatal("request buffer not tainted")
	}
}

func TestServerTrustedConnectionsStayClean(t *testing.T) {
	pol := policy.Default()
	pol.TrustFraction = 1 // every connection trusted
	_, eng, err := runProgram(t, "server", pol, func(e *vm.Env) {
		e.Requests = [][]byte{[]byte("GET /index")}
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shadow.TaintedBytes() != 0 {
		t.Fatal("trusted request tainted memory")
	}
}

func TestOverflowBenignInput(t *testing.T) {
	c, _, err := runProgram(t, "overflow", policy.Default(), func(e *vm.Env) {
		e.FileData = []byte("short msg") // fits the 16-byte buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 42 {
		t.Fatalf("handler did not run: r3 = %d", c.Regs[3])
	}
}

func TestOverflowExploitDetected(t *testing.T) {
	attack := make([]byte, 20) // 16 bytes fill the buffer, 4 smash the fnptr
	copy(attack[16:], []byte{0x00, 0x10, 0x00, 0x00})
	_, _, err := runProgram(t, "overflow", policy.Default(), func(e *vm.Env) {
		e.FileData = attack
	})
	var v dift.Violation
	if !errors.As(err, &v) || v.Kind != dift.ViolationControlFlow {
		t.Fatalf("err = %v, want control-flow violation", err)
	}
}

func TestTaintjumpDetectedClassical(t *testing.T) {
	// The dispatch offset is attacker input; classical DTA carries its
	// taint through the add into the jump target.
	_, _, err := runProgram(t, "taintjump", policy.Default(), func(e *vm.Env) {
		e.FileData = []byte{0, 0, 0, 0}
	})
	var v dift.Violation
	if !errors.As(err, &v) || v.Kind != dift.ViolationControlFlow {
		t.Fatalf("err = %v, want control-flow violation", err)
	}
}

func TestTaintjumpMissedPIFT(t *testing.T) {
	// PIFT clears taint at ALU operations, so the computed target looks
	// clean and the hijack probe sails through.
	pol := policy.Default()
	pol.Propagation = policy.PropagationPIFT
	c, _, err := runProgram(t, "taintjump", pol, func(e *vm.Env) {
		e.FileData = []byte{0, 0, 0, 0}
	})
	if err != nil {
		t.Fatalf("PIFT unexpectedly flagged the jump: %v", err)
	}
	if c.ExitCode() != 0 {
		t.Fatalf("exit code = %d", c.ExitCode())
	}
}

func TestLaunderExfiltratesSecret(t *testing.T) {
	// The identity table copies the secret byte for byte, yet the copy is
	// clean under classical DTA (address-based flow) and the leak check
	// never fires.
	pol := policy.Default()
	pol.CheckLeak = true
	secret := []byte("hunter2: the launderable secret!")
	c, eng, err := runProgram(t, "launder", pol, func(e *vm.Env) {
		e.FileData = secret
	})
	if err != nil {
		t.Fatalf("launder flagged a leak: %v", err)
	}
	if got := c.Env.Output.Bytes(); string(got) != string(secret) {
		t.Fatalf("exfiltrated %q, want the exact secret %q", got, secret)
	}
	if eng.Shadow.RangeTainted(0x9000, len(secret)) {
		t.Fatal("laundered output is tainted")
	}
	if !eng.Shadow.RangeTainted(0x8000, len(secret)) {
		t.Fatal("input lost taint")
	}
}

func TestParserCountsSpaces(t *testing.T) {
	c, _, err := runProgram(t, "parser", policy.Default(), func(e *vm.Env) {
		e.FileData = []byte("one two three four")
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.ExitCode() != 3 {
		t.Fatalf("space count = %d, want 3", c.ExitCode())
	}
}
