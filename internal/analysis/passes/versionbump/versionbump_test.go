package versionbump_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/versionbump"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", versionbump.Analyzer,
		"repro/internal/xmldb")
}
