package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"vaq/internal/experiments"
)

// goldenAll is the text output of `repro -experiment all` at seed 2019
// and the default budgets. It was written by the binary itself
// (`go run ./cmd/repro > cmd/repro/testdata/all_seed2019.txt`) and is
// never regenerated by a test: a change that moves a number must say so
// by rewriting this file in its own commit.
const goldenAll = "testdata/all_seed2019.txt"

// shortGolden is the subset -short pins: the experiments cheap enough to
// run twice under the race detector. Each one's output must appear in
// the golden, in this order.
var shortGolden = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2", "table3"}

// TestReproGolden byte-compares every paper table against the committed
// golden, once serially and once with one worker per CPU.
func TestReproGolden(t *testing.T) {
	b, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", -1}, {"per-cpu", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := experiments.Config{Seed: 2019, Trials: 200000, Workers: tc.workers}
			if !testing.Short() {
				if got := renderText(t, cfg, "all"); got != want {
					t.Fatalf("output differs from %s at %s", goldenAll, firstDiff(got, want))
				}
				return
			}
			rest := want
			for _, name := range shortGolden {
				got := renderText(t, cfg, name)
				i := strings.Index(rest, got)
				if i < 0 {
					t.Fatalf("%s: output not found in %s after the previous experiments:\n%s", name, goldenAll, got)
				}
				rest = rest[i+len(got):]
			}
		})
	}
}

func renderText(t *testing.T, cfg experiments.Config, which string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runList(&buf, cfg, experimentList(), which, "text"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("end of output: got %d lines, want %d", len(g), len(w))
}
