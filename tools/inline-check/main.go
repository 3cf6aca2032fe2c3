// Command inline-check fails unless the compiler inlines the calls the
// experiment and replay hot loops depend on. Losing one of these inlinings
// costs a call per shadow access, and nothing else reports it: go1.24
// inlines shadow.Shadow's methods that call into package mem only into
// packages that import shadow directly, so deleting an import elsewhere can
// quietly slow the catalog pass by a sixth.
//
// It builds the packages holding the call sites with -gcflags=-m, parses
// each site's source file for calls of the method, and requires the
// compiler to report "inlining call to" the method at every one of them.
// Run it from the repository root:
//
//	go run ./tools/inline-check
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
)

// site is one required inlining: every call of method in file, on a
// receiver spelled recv when recv is set, must inline callee, a
// regular expression over the compiler's name of the inlined function.
type site struct {
	file   string
	recv   string
	method string
	callee string
}

const (
	table  = `^mem\.\(\*Table\[.*\]\)\.`
	shadow = `^shadow\.\(\*Shadow\)\.`
)

var sites = []site{
	{"internal/shadow/shadow.go", "s.pages", "Lookup", table + `Lookup$`},
	{"internal/shadow/shadow.go", "s.pages", "Get", table + `Get$`},
	{"internal/shadow/shadow.go", "s.pages", "Writable", table + `Writable$`},
	{"internal/experiments/experiments.go", "", "MustTaintedAt", shadow + `MustTaintedAt$`},
	{"internal/workload/generator.go", "", "DomainTainted", shadow + `DomainTainted$`},
	{"internal/latch/module.go", "", "RangeTainted", shadow + `RangeTainted$`},
	{"internal/dift/dift.go", "", "RangeTainted", shadow + `RangeTainted$`},
}

// report matches a compiler diagnostic "file:line:col: inlining call to f".
var report = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): inlining call to (.+)$`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inline-check:", err)
		os.Exit(1)
	}
}

func run() error {
	inlined, err := build()
	if err != nil {
		return err
	}
	failed := 0
	for _, s := range sites {
		calls, err := callSites(s)
		if err != nil {
			return err
		}
		if len(calls) == 0 {
			return fmt.Errorf("%s has no call of %s to check", s.file, s.method)
		}
		re := regexp.MustCompile(s.callee)
		ok := 0
		for _, at := range calls {
			if matchesAny(re, inlined[at]) {
				ok++
			} else {
				fmt.Printf("%s: call of %s not inlined\n", at, s.method)
			}
		}
		fmt.Printf("%s: %d of %d call(s) of %s inlined\n", s.file, ok, len(calls), s.method)
		failed += len(calls) - ok
	}
	if failed > 0 {
		return fmt.Errorf("%d call site(s) lost their inlining", failed)
	}
	return nil
}

// build compiles the packages holding the sites with -gcflags=-m and
// returns the functions the compiler reports inlining at each position.
func build() (map[string][]string, error) {
	var pkgs []string
	seen := map[string]bool{}
	for _, s := range sites {
		if pkg := "./" + filepath.Dir(s.file); !seen[pkg] {
			seen[pkg] = true
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Strings(pkgs)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	inlined := map[string][]string{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if m := report.FindStringSubmatch(sc.Text()); m != nil {
			at := fmt.Sprintf("%s:%s:%s", filepath.Clean(m[1]), m[2], m[3])
			inlined[at] = append(inlined[at], m[4])
		}
	}
	return inlined, sc.Err()
}

// callSites returns the position of the opening parenthesis of every call
// of s.method in s.file on receiver s.recv, where the compiler reports an
// inlined call, as file:line:col.
func callSites(s site) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, s.file, nil, 0)
	if err != nil {
		return nil, err
	}
	var calls []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != s.method || s.recv != "" && exprString(sel.X) != s.recv {
			return true
		}
		p := fset.Position(call.Lparen)
		calls = append(calls, fmt.Sprintf("%s:%d:%d", s.file, p.Line, p.Column))
		return true
	})
	return calls, nil
}

// exprString spells a receiver made of identifiers and selectors, such as
// s.pages, and returns "" for any other expression.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprString(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
