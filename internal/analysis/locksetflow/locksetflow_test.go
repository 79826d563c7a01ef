package locksetflow_test

import (
	"path/filepath"
	"testing"

	"darkarts/internal/analysis/analysistest"
	"darkarts/internal/analysis/locksetflow"
)

func TestFlow(t *testing.T) {
	analysistest.Run(t, locksetflow.Analyzer, filepath.Join("testdata", "src", "flow"))
}

// TestLocks covers straight-line guarded-field accesses: the findings the
// former lexical lockcheck analyzer made, at the same lines.
func TestLocks(t *testing.T) {
	analysistest.Run(t, locksetflow.Analyzer, filepath.Join("testdata", "src", "locks"))
}
