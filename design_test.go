package corropt

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// inventoryRow matches a DESIGN.md §3 row that names an internal/ or cmd/
// package, capturing its path.
var inventoryRow = regexp.MustCompile("^\\| `((?:internal|cmd)/[^`]+)` \\|")

// TestDesignInventoryMatchesPackages holds DESIGN.md §3's inventory table to
// the module's packages both ways: every internal/ and cmd/ package listed
// by `go list ./...` has a row, and every row names such a package.
func TestDesignInventoryMatchesPackages(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no §3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := inventoryRow.FindStringSubmatch(line); m != nil {
			if rows[m[1]] {
				t.Errorf("DESIGN.md §3 lists %s twice", m[1])
			}
			rows[m[1]] = true
		}
	}

	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := map[string]bool{}
	for _, path := range strings.Fields(string(out)) {
		rel := strings.TrimPrefix(path, "corropt/")
		if strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") {
			pkgs[rel] = true
		}
	}
	if len(pkgs) == 0 {
		t.Fatalf("go list found no internal/ or cmd/ packages:\n%s", out)
	}
	for p := range pkgs {
		if !rows[p] {
			t.Errorf("package %s has no row in DESIGN.md §3", p)
		}
	}
	for r := range rows {
		if !pkgs[r] {
			t.Errorf("DESIGN.md §3 row %s names no package", r)
		}
	}
}
