package main

import (
	"strings"
	"testing"
)

func TestRunInfectedDetects(t *testing.T) {
	err := run([]string{"-duration", "90s", "-period", "30s", "-threads", "4"})
	if err != nil {
		t.Fatalf("infected run: %v", err)
	}
}

func TestRunCleanIsQuiet(t *testing.T) {
	if err := run([]string{"-clean", "-duration", "60s", "-period", "20s"}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}

func TestRunZcashRSXO(t *testing.T) {
	err := run([]string{"-coin", "zcash", "-tags", "rsxo", "-duration", "60s", "-period", "20s"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadFlags: bad flag values fail before any simulation.
// -period is bounded like a procfs write to period_ms, so windows under
// 1ms, static-prior ones included, are refused.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tags", "bogus", "-duration", "1s"}, "bogus"},
		{[]string{"-nope"}, "-nope"},
		{[]string{"-period", "100us", "-duration", "1s"}, "-period"},
		{[]string{"-period", "-1s", "-duration", "1s"}, "-period"},
		{[]string{"-period", "0", "-duration", "1s"}, "-period"},
		{[]string{"-period", "3ms", "-duration", "1s"}, "-period"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
