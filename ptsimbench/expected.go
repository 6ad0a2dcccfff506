package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/service/modelzoo"
)

// expected.json holds the simulated results every op is checked against.
// They are exact: a host-side optimisation must reproduce them bit for
// bit. `go test -run TestExpectedTable -update` recomputes the table from
// the simulator when a change is meant to move simulated results.
//
//go:embed expected.json
var expectedJSON []byte

// expectedTable is the correctness gate's reference.
type expectedTable struct {
	// CNN maps "<spec> x<cores>" to one multi-core engine run's counts.
	CNN map[string]cnnExpect `json:"cnn"`
	// Iterations maps a serving iteration's spec label to its cycles on a
	// fresh engine; the serving reference replays a trace over them.
	Iterations map[string]int64 `json:"iterations"`
	// Jobs maps a fleet job's spec label to its canonical cycles.
	Jobs map[string]int64 `json:"jobs"`
}

type cnnExpect struct {
	Cycles     int64 `json:"cycles"`
	DRAMReads  int64 `json:"dram_reads"`
	DRAMWrites int64 `json:"dram_writes"`
	RowHits    int64 `json:"row_hits"`
	NoCFlits   int64 `json:"noc_flits"`
}

func loadExpected() (*expectedTable, error) {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &t, nil
}

// specLabel names a normalized model spec by the fields that shape it.
func specLabel(s modelzoo.Spec) string {
	s = s.Normalize()
	parts := []string{s.Model, fmt.Sprintf("b%d", s.Batch)}
	if s.N > 0 {
		parts = append(parts, fmt.Sprintf("n%d", s.N))
	}
	if s.Ctx > 0 {
		parts = append(parts, fmt.Sprintf("ctx%d", s.Ctx))
	}
	if s.Prefill {
		parts = append(parts, "prefill")
	}
	if s.Topology != "single" {
		parts = append(parts, s.Topology+"/"+s.Parallel)
	}
	return strings.Join(parts, " ")
}
