package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	p := MustGet("gcc")
	p.Name = "my-app"
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "my-app" || q.TaintPct != p.TaintPct || q.TaintReuse != p.TaintReuse {
		t.Fatalf("round trip lost fields: %+v", q)
	}
	if len(q.Epochs) != len(p.Epochs) {
		t.Fatalf("epochs lost: %d vs %d", len(q.Epochs), len(p.Epochs))
	}
	// The restored profile drives a generator like any built-in.
	g, err := NewGenerator(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shadow().EverTaintedPages() != q.PagesTainted {
		t.Fatal("restored profile does not materialize")
	}
}

func TestReadProfileRejections(t *testing.T) {
	cases := []string{
		`{`,                          // malformed
		`{"Name":"x","Bogus":1}`,     // unknown field
		`{"Name":"gcc"}`,             // collides with a built-in (and invalid anyway)
		`{"Name":"y","TaintPct":-1}`, // fails validation
	}
	for i, src := range cases {
		if _, err := ReadProfile(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A footprint past the 32-bit top would wrap page addresses, so clean
	// pages would alias the tainted block. The largest footprint that fits
	// is accepted; one page more is not.
	for _, c := range []struct {
		pages int
		ok    bool
	}{{2_100_000, false}, {maxPagesAccessed + 1, false}, {maxPagesAccessed, true}} {
		p := MustGet("gcc")
		p.Name, p.PagesAccessed = "huge-app", c.pages
		var buf bytes.Buffer
		if err := WriteProfile(&buf, p); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadProfile(&buf); (err == nil) != c.ok {
			t.Errorf("PagesAccessed %d: err = %v, want accepted = %v", c.pages, err, c.ok)
		}
	}
	// A valid custom profile with a built-in name is rejected explicitly.
	p := MustGet("gcc")
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfile(&buf); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Errorf("built-in name collision not flagged: %v", err)
	}
}

func TestRegisterCustomProfile(t *testing.T) {
	p := MustGet("gcc")
	p.Name = "registered-app"
	p.Suite = SuiteNetwork
	if err := Register(p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { delete(registry, "registered-app") })
	got, err := Get("registered-app")
	if err != nil || got.TaintPct != p.TaintPct {
		t.Fatalf("registered profile not retrievable: %v", err)
	}
	// Duplicates and invalid profiles are rejected.
	if err := Register(p); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	bad := p
	bad.Name = "bad-app"
	bad.TaintPct = -5
	if err := Register(bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
	// The suite listing includes it while registered.
	found := false
	for _, name := range BySuite(SuiteNetwork) {
		if name == "registered-app" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered profile missing from suite listing")
	}
}
