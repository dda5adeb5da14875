// Command docscheck is the standalone driver for the repo's
// documentation lint (internal/analysis/docs), run by `make docs-check`.
// It enforces two invariants that plain `go vet` does not:
//
//   - every exported top-level identifier in the internal/* packages
//     carries a doc comment, so the wire-format and protocol references
//     in DESIGN.md always have a godoc counterpart to point at — and in
//     the boundary packages (docs.DeepDocPackages: group, ec25519,
//     transport) the standard reaches exported struct fields and
//     interface methods too;
//   - every intra-repository link in the *.md files resolves, so the
//     cross-references between README.md, DESIGN.md, EXPERIMENTS.md and
//     bench/README.md cannot silently rot;
//   - every internal/* package is imported by a non-test file outside
//     it (internal/simulate, the test-only proof simulators, excepted),
//     so a package no command, example or other package reaches is
//     reported instead of kept.
//
// Every violation is printed with its file:line before the nonzero
// exit — a broken file never hides the rest of the findings.  The same
// checks also run inside cmd/psilint, whose exit code folds doc and
// lint findings into one `make check` pass.
package main

import (
	"flag"
	"fmt"
	"os"

	"minshare/internal/analysis/docs"
)

func main() {
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	problems, err := docs.CheckAll(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, msg := range problems {
		fmt.Println(msg)
	}
	if len(problems) > 0 {
		fmt.Printf("docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}
