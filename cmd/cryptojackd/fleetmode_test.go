package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFleetDetects: -fleet N runs the whole daemon path (flag parsing,
// placement, rounds, summary) and the infected machines alert.
func TestRunFleetDetects(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "fleet.json")
	err := run([]string{
		"-fleet", "8", "-miner-every", "4", "-round", "500ms",
		"-duration", "5s", "-period", "2s",
		"-metrics-json", snap,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	got := map[string]float64{}
	for _, r := range results { // records are Obs/<layer>; metrics keyed by name
		for k, v := range r.Metrics {
			got[k] = v
		}
	}
	if got["fleet_alerts_total"] == 0 {
		t.Errorf("snapshot fleet_alerts_total = %v, want > 0", got["fleet_alerts_total"])
	}
	if got["fleet_rounds_total"] == 0 {
		t.Error("snapshot missing fleet_rounds_total")
	}
}

// TestRunFleetCleanIsQuiet: a clean fleet must raise zero alerts; runFleet
// turns any into an error.
func TestRunFleetCleanIsQuiet(t *testing.T) {
	err := run([]string{
		"-fleet", "6", "-clean", "-round", "500ms",
		"-duration", "4s", "-period", "2s", "-obs=false",
	})
	if err != nil {
		t.Fatalf("clean fleet run: %v", err)
	}
}

// TestRunFleetBadFlags: fleet mode still validates shared flags, and
// bounds -period too, so -period 0 cannot silently drop -threshold.
func TestRunFleetBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tags", "bogus"}, "bogus"},
		{[]string{"-period", "0", "-threshold", "1000"}, "-period"},
		{[]string{"-period", "100us"}, "-period"},
		{[]string{"-period", "-1s"}, "-period"},
	} {
		err := run(append([]string{"-fleet", "4", "-duration", "1s"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
