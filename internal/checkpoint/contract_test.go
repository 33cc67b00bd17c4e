package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/core"
)

// ckptSchemaPath is the checkpoint-payload golden at the module root.
var ckptSchemaPath = filepath.Join("..", "..", "ckpt.schema.json")

// currentCkpt is the payload contract this code writes: the shape of
// core.StudySnapshot and every state struct it reaches, keyed by the
// envelope version and core.SnapshotVersion.
func currentCkpt() contract.Doc {
	return contract.Doc{
		EnvelopeVersion: envelopeVersion,
		SnapshotVersion: core.SnapshotVersion,
		Types:           contract.Types("", reflect.TypeFor[core.StudySnapshot]()),
	}
}

// ckptFindings renders the drift from a pinned golden to the current
// contract. A version bump sanctions any shape change and leaves only the
// reminder to re-pin; under standing versions every change is a finding,
// because a version-N checkpoint on disk must describe what version-N
// code writes.
func ckptFindings(golden, current contract.Doc) []string {
	if golden.EnvelopeVersion != current.EnvelopeVersion || golden.SnapshotVersion != current.SnapshotVersion {
		return []string{fmt.Sprintf("checkpoint contract moved (envelope %d -> %d, snapshot %d -> %d) but ckpt.schema.json still pins the old one; re-pin with `go test ./internal/checkpoint -run TestCheckpointContract -update`",
			golden.EnvelopeVersion, current.EnvelopeVersion, golden.SnapshotVersion, current.SnapshotVersion)}
	}
	var out []string
	for _, c := range contract.Diff(golden, current) {
		out = append(out, fmt.Sprintf("%s without a SnapshotVersion bump: version-%d checkpoints would decode into a different shape; bump SnapshotVersion and re-pin with -update",
			c, golden.SnapshotVersion))
	}
	return out
}

// TestCheckpointContract pins the checkpoint payload to ckpt.schema.json.
func TestCheckpointContract(t *testing.T) {
	current := currentCkpt()
	golden, err := contract.Golden(ckptSchemaPath, current)
	if err != nil {
		t.Fatalf("reading the checkpoint golden: %v", err)
	}
	for _, f := range ckptFindings(golden, current) {
		t.Error(f)
	}
}

// TestCheckpointDriftIsCaught feeds doctored goldens through the same
// check: a golden that predates DatasetState.FpIncr at today's
// SnapshotVersion is one "bump SnapshotVersion" finding; a golden that
// also pins DaysRun under another type adds a second; and a stale golden
// one version back is only the re-pin reminder.
func TestCheckpointDriftIsCaught(t *testing.T) {
	const dataset = "repro/internal/core.DatasetState"
	added := `field "FpIncr" of repro/internal/core.DatasetState added without a SnapshotVersion bump`
	cases := []struct {
		name   string
		doctor func(*contract.Doc)
		want   []string
	}{
		{"field added under a standing version",
			func(g *contract.Doc) { delete(g.Types[dataset], "FpIncr") },
			[]string{added}},
		{"field added and retyped under a standing version",
			func(g *contract.Doc) {
				delete(g.Types[dataset], "FpIncr")
				g.Types[dataset]["DaysRun"] = "string"
			},
			[]string{added, `field "DaysRun" of repro/internal/core.DatasetState changed type string -> int without a SnapshotVersion bump`}},
		{"version bumped with a stale golden",
			func(g *contract.Doc) {
				delete(g.Types[dataset], "FpIncr")
				g.SnapshotVersion--
			},
			[]string{fmt.Sprintf("checkpoint contract moved (envelope %d -> %d, snapshot %d -> %d) but ckpt.schema.json still pins the old one; re-pin",
				envelopeVersion, envelopeVersion, core.SnapshotVersion-1, core.SnapshotVersion)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(ckptSchemaPath)
			if err != nil {
				t.Fatal(err)
			}
			var golden contract.Doc
			if err := json.Unmarshal(raw, &golden); err != nil {
				t.Fatal(err)
			}
			tc.doctor(&golden)
			got := ckptFindings(golden, currentCkpt())
			if len(got) != len(tc.want) {
				t.Fatalf("findings %q, want %d starting %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("finding %d is %q, want it to start %q", i, got[i], w)
				}
			}
		})
	}
}
