package backend

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/htm"
)

func fake(name string) Info {
	return Info{
		Name:    name,
		Summary: name + " summary",
		New: func(*htm.Machine, *anchor.Compiled, Options) (Runtime, error) {
			return nil, nil
		},
	}
}

// TestRegistry pins the registry contract the harness, the CLIs and the
// service rely on: registration is strict (a collision or an unusable
// entry is a programming error and panics at init), lookups of unknown
// names fail with every valid spelling in the message, and listings are
// sorted so usage text and sweeps are stable. No real backend is linked
// into this package's tests, so the registry starts empty.
func TestRegistry(t *testing.T) {
	registry = map[string]Info{}
	defer func() { registry = map[string]Info{} }()

	for _, name := range []string{"zeta", "alpha", "mid"} {
		Register(fake(name))
	}
	names := Names()
	if len(names) != 3 || !sort.StringsAreSorted(names) {
		t.Fatalf("Names() = %v, want the 3 registered names sorted", names)
	}
	if got := Summaries(); len(got) != 3 || got[0] != "alpha — alpha summary" {
		t.Fatalf("Summaries() = %q, want sorted \"name — summary\" lines", got)
	}
	if info, err := Get("mid"); err != nil || info.Name != "mid" {
		t.Fatalf("Get(mid) = %+v, %v", info, err)
	}

	_, err := Get("bogus")
	if err == nil {
		t.Fatal("Get accepted an unregistered name")
	}
	for _, want := range append(names, `"bogus"`) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Get error %q does not mention %s", err, want)
		}
	}

	noCtor := fake("no-constructor")
	noCtor.New = nil
	for what, info := range map[string]Info{
		"duplicate name":      fake("alpha"),
		"empty name":          fake(""),
		"missing constructor": noCtor,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register with %s did not panic", what)
				}
			}()
			Register(info)
		}()
	}
	if len(Names()) != 3 {
		t.Fatalf("a rejected Register changed the registry: %v", Names())
	}
}
