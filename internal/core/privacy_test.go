package core

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCacheWritesDoNotCompile is the negative control for the Network cache
// discipline, which Go's package privacy holds: the derived state lives in
// internal/core/netstate behind unexported fields, and the disabled set is
// handed out only as a read-only view. Each case adds one seeded file to
// the real package with `go build -overlay`, and the compiler must refuse
// it. A legitimate read through the owners' methods first builds clean, so
// a refusal means the write, not a broken overlay.
func TestCacheWritesDoNotCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler once per case")
	}
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	build := func(body string) (string, error) {
		t.Helper()
		tmp := t.TempDir()
		seeded := filepath.Join(tmp, "seeded.go")
		src := "package core\n\nfunc (n *Network) seeded() {\n\t" + body + "\n}\n"
		if err := os.WriteFile(seeded, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{
			"Replace": {filepath.Join(dir, "zz_seeded.go"): seeded},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := filepath.Join(tmp, "overlay.json")
		if err := os.WriteFile(cfg, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command("go", "build", "-overlay", cfg, ".").CombinedOutput()
		return string(out), err
	}

	if out, err := build("_ = n.links.Rate(0) + n.tors.Constraint(0)"); err != nil {
		t.Fatalf("a read through the owners' methods does not build: %v\n%s", err, out)
	}
	// Outside its package an unexported field is undefined; the compiler
	// says "cannot refer to unexported field" unless an exported method
	// differs from it only in case, and then points at the method, just as
	// it does for a name that does not exist. So each case names a field
	// with no such method: the refusal then shows the field is there.
	for _, tc := range []struct{ name, body, want string }{
		// The write LoadState once made, leaving PenaltySum stale.
		{"rate write", "n.links.rates.set(0, 1)", "cannot refer to unexported field rates"},
		{"index mutation", "n.links.rates.slots = nil", "cannot refer to unexported field rates"},
		{"contribution write", "n.pen.contribs.set(0, 0)", "cannot refer to unexported field contribs"},
		{"fraction cache write", "n.tors.frac[0] = 0.5", "cannot refer to unexported field frac"},
		{"disabled set mutation", "n.DisabledLinks().Add(0)", "has no field or method Add"},
	} {
		out, err := build(tc.body)
		if err == nil {
			t.Errorf("%s: %q compiled", tc.name, tc.body)
		} else if !strings.Contains(out, tc.want) {
			t.Errorf("%s: %q refused, but not with %q:\n%s", tc.name, tc.body, tc.want, out)
		}
	}
}
