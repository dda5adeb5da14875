package docs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestDeepDocsFlagFieldsAndMethods(t *testing.T) {
	root := t.TempDir()
	// group is a DeepDocPackages member: undocumented exported fields
	// and interface methods must be flagged; documented and unexported
	// ones must not.
	write(t, root, "internal/group/g.go", `// Package group is a fixture.
package group

// Params is documented.
type Params struct {
	// Bits is documented.
	Bits int
	Raw  []byte // trailing comments satisfy godoc too
	Gap  int
	priv int
}

// Backend is documented.
type Backend interface {
	// Name is documented.
	Name() string
	Open() error
}
`)
	// core is not in DeepDocPackages: the same shape is clean.
	write(t, root, "internal/core/c.go", `// Package core is a fixture.
package core

// Config is documented.
type Config struct {
	Undocumented int
}
`)
	problems, err := CheckGoDocs(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range problems {
		got = append(got, p[strings.LastIndex(p, "exported"):])
	}
	want := []string{
		"exported field Params.Gap has no doc comment",
		"exported method Backend.Open has no doc comment",
	}
	if len(got) != len(want) {
		t.Fatalf("problems = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("problem[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOrphanPackagesReported(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	write(t, root, "cmd/tool/main.go", "package main\n\nimport _ \"fixture/internal/used\"\n\nfunc main() {}\n")
	write(t, root, "internal/used/used.go", "package used\n")
	// orphan is reached only by its own tests and by another package's
	// tests; neither counts.  testdata is not a package.
	write(t, root, "internal/orphan/orphan.go", "package orphan\n")
	write(t, root, "internal/orphan/orphan_test.go", "package orphan\n\nimport _ \"fixture/internal/orphan\"\n")
	write(t, root, "internal/used/used_test.go", "package used\n\nimport _ \"fixture/internal/orphan\"\n")
	write(t, root, "internal/used/testdata/x.go", "package x\n\nimport _ \"fixture/internal/orphan\"\n")
	// self imports the package it lives in, which does not count either.
	write(t, root, "internal/self/self.go", "package self\n\nimport _ \"fixture/internal/self\"\n")
	// simulate is exempt by name.
	write(t, root, "internal/simulate/simulate.go", "package simulate\n")
	problems, err := checkOrphans(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/orphan", "internal/self"}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want orphans %q", problems, want)
	}
	for i, dir := range want {
		if !strings.Contains(problems[i], "package "+dir+" has no non-test importer") {
			t.Errorf("problem[%d] = %q, want orphan %s", i, problems[i], dir)
		}
	}
}
