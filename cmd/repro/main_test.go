package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"strings"
	"testing"

	"vaq/internal/experiments"
)

func fastCfg() experiments.Config {
	return experiments.Config{
		Seed:          2019,
		Trials:        20000,
		NativeConfigs: 3,
		NativeTrials:  2000,
		Q5Trials:      2048,
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// The cheap experiments run end to end through the CLI path.
	for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2", "table3"} {
		if err := runList(io.Discard, fastCfg(), experimentList(), name, "text"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := runList(io.Discard, fastCfg(), experimentList(), "fig99", "text"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunFormats(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		var out bytes.Buffer
		if err := runList(&out, fastCfg(), experimentList(), "fig9", format); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
		if format == "csv" {
			// encoding/csv rejects records of differing width.
			if _, err := csv.NewReader(&out).ReadAll(); err != nil {
				t.Errorf("csv output does not parse: %v", err)
			}
		}
	}
	if err := runList(io.Discard, fastCfg(), experimentList(), "fig9", "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestApplyFullBudgetRespectsExplicitTrials(t *testing.T) {
	base := experiments.Config{Seed: 1, Trials: 50000}
	got := applyFullBudget(base, true, map[string]bool{"trials": true})
	if got.Trials != 50000 {
		t.Fatalf("-full stomped an explicit -trials: %d", got.Trials)
	}
	if got.NativeConfigs != 32 || got.NativeTrials != 10000 || got.Q5Trials != 4096 {
		t.Fatalf("-full did not apply the paper budgets: %+v", got)
	}
	got = applyFullBudget(base, true, map[string]bool{})
	if got.Trials != 1000000 {
		t.Fatalf("-full without explicit -trials = %d trials, want 1M", got.Trials)
	}
	got = applyFullBudget(base, false, map[string]bool{})
	if got != base {
		t.Fatalf("config changed without -full: %+v", got)
	}
}

func experimentByName(t *testing.T, name string) experiment {
	t.Helper()
	for _, e := range experimentList() {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("experiment %q not in list", name)
	return experiment{}
}

// TestUsageErrors pins the flag combinations repro rejects before doing
// any work: exit status 2 and a message naming the flag.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-experiment", "all", "-format", "csv"}, "-format csv"},
		{[]string{"-format", "csv"}, "-format csv"},
		{[]string{"-experiment", "fig9", "-seed", "0"}, "-seed"},
		{[]string{"-trials", "-1"}, "-trials"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not mention %s", tc.args, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes of output before rejecting", tc.args, stdout.Len())
		}
	}
}

// TestExperimentErrorStopsRun checks the error contract: the first
// failing experiment stops the run, later experiments do not start, and
// the error names the experiment.
func TestExperimentErrorStopsRun(t *testing.T) {
	boom := errors.New("injected")
	list := []experiment{
		experimentByName(t, "fig9"),
		{"boom", func(experiments.Config) (rendering, error) { return rendering{}, boom }},
		{"after", func(experiments.Config) (rendering, error) {
			t.Error("experiment after the failure ran")
			return rendering{}, nil
		}},
	}
	var out bytes.Buffer
	err := runList(&out, fastCfg(), list, "all", "text")
	if !errors.Is(err, boom) || err.Error() != "boom: injected" {
		t.Fatalf("err = %v, want boom: injected", err)
	}
	if !strings.Contains(out.String(), "Figure 9") {
		t.Error("table before the failure was not written")
	}
}
