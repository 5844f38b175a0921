package light

import (
	"testing"

	"repro/internal/trace"
)

// DiffPropagation and DiffCheckers expose the propagation and checker
// differentials to the external test package, which records lightfuzz
// programs.
var (
	DiffPropagation = diffPropagation
	DiffCheckers    = diffCheckers
)

// NamedLog is one golden log.
type NamedLog struct {
	Name string
	Log  *trace.Log
}

// GoldenLogs loads every golden log (TestGoldenSchedules).
func GoldenLogs(t *testing.T) []NamedLog {
	var logs []NamedLog
	for _, src := range goldenSources() {
		logs = append(logs, NamedLog{src.name, loadGoldenLog(t, src)})
	}
	return logs
}
