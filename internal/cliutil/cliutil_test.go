package cliutil

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTrials(t *testing.T) {
	cases := []struct {
		n  int
		ok bool
	}{
		{1, true},
		{100000, true},
		{MaxTrials, true},
		{0, false},
		{-5, false},
		{MaxTrials + 1, false},
	}
	for _, tc := range cases {
		err := Trials("trials", tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("Trials(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
	if err := Trials("trials", -1); err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Errorf("message should name the flag: %v", err)
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct {
		n  int
		ok bool
	}{
		{0, true},    // one per CPU
		{-1, true},   // serial
		{-100, true}, // serial (any negative)
		{16, true},
		{MaxWorkers, true},
		{MaxWorkers + 1, false},
	}
	for _, tc := range cases {
		err := Workers("workers", tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("Workers(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

func TestTimeout(t *testing.T) {
	cases := []struct {
		d  time.Duration
		ok bool
	}{
		{0, true}, // no limit
		{time.Second, true},
		{MaxTimeout, true},
		{-time.Second, false},
		{MaxTimeout + 1, false},
	}
	for _, tc := range cases {
		err := Timeout("timeout", tc.d)
		if (err == nil) != tc.ok {
			t.Errorf("Timeout(%v) = %v, want ok=%v", tc.d, err, tc.ok)
		}
	}
}

func TestDays(t *testing.T) {
	cases := []struct {
		n  int
		ok bool
	}{
		{0, true}, // device default
		{52, true},
		{MaxDays, true},
		{-1, false},
		{MaxDays + 1, false},
	}
	for _, tc := range cases {
		err := Days("days", tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("Days(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

func TestPositive(t *testing.T) {
	if err := Positive("max-inflight", 1); err != nil {
		t.Errorf("Positive(1) = %v", err)
	}
	if err := Positive("max-inflight", 0); err == nil {
		t.Error("Positive(0) accepted")
	}
}

func TestAll(t *testing.T) {
	if err := All(nil, nil); err != nil {
		t.Errorf("All(nil, nil) = %v", err)
	}
	e1 := Trials("trials", -1)
	e2 := Timeout("timeout", -time.Second)
	joined := All(nil, e1, e2, nil)
	if joined == nil {
		t.Fatal("All dropped errors")
	}
	if !errors.Is(joined, e1) || !errors.Is(joined, e2) {
		t.Errorf("All should join both errors: %v", joined)
	}
	if !strings.Contains(joined.Error(), "-trials") || !strings.Contains(joined.Error(), "-timeout") {
		t.Errorf("joined message should mention both flags: %v", joined)
	}
}
