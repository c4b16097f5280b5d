package blast

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// goldenByRules is the SHA-256 of internal/core/testdata/golden_results.txt
// under each RulesVersion, version v at index v-1. The goldens pin the
// engine's whole output on a fixed workload; a change that regenerates them
// changes reply bytes, so it bumps RulesVersion and appends its hash here.
var goldenByRules = []string{
	"115e80494eedc02795dc50e77da0bfa0de0a415f63aae6402d37c485fae3b4fd",
	"b927ef4523ab5386131eeb952fed0f954827c611acca65d83d8aefd150e7e65a",
	"1f7a3bd11a7cb8c57220c265297e14e12d30bed587be01fe88ff7d8a7ca261a9",
}

// TestRulesVersionPinsGoldens ties RulesVersion to the engine's goldens:
// regenerating them without a bump fails here.
func TestRulesVersionPinsGoldens(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "internal", "core", "testdata", "golden_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	got := hex.EncodeToString(sum[:])
	if len(goldenByRules) != RulesVersion {
		t.Fatalf("RulesVersion %d, but golden hashes are recorded for %d versions", RulesVersion, len(goldenByRules))
	}
	switch i := slices.Index(goldenByRules, got); {
	case i < 0:
		t.Fatalf("the engine's goldens changed (sha256 %s) but RulesVersion is still %d: bump it and append the hash", got, RulesVersion)
	case i != RulesVersion-1:
		t.Fatalf("the goldens are rules version %d's, RulesVersion is %d", i+1, RulesVersion)
	}
}

// TestVerifyTopologyRefusesMixedRules: a fleet whose replicas agree on every
// fact but the rules they search by is refused with ErrRulesMismatch, whether
// the odd replica is a peer in one shard or another shard's.
func TestVerifyTopologyRefusesMixedRules(t *testing.T) {
	fp := Fingerprint{Matrix: "BLOSUM62", WordSize: 3, NeighborThreshold: 11}
	facts := func(rules ...int) [][]ReplicaFacts {
		return [][]ReplicaFacts{
			{{Name: "a", Fingerprint: fp, RulesVersion: rules[0], Sequences: 2, TotalResidues: 60},
				{Name: "b", Fingerprint: fp, RulesVersion: rules[1], Sequences: 2, TotalResidues: 60}},
			{{Name: "c", Fingerprint: fp, RulesVersion: rules[2], Sequences: 2, TotalResidues: 40}},
		}
	}
	if _, n, _, err := VerifyTopology(facts(RulesVersion, RulesVersion, RulesVersion)); err != nil || n != 4 {
		t.Fatalf("coherent fleet refused: %v (global %d)", err, n)
	}
	for _, rules := range [][]int{
		{RulesVersion, RulesVersion - 1, RulesVersion},
		{RulesVersion, RulesVersion, RulesVersion + 1},
		{RulesVersion, RulesVersion, 0}, // a daemon from before rules versions
	} {
		_, _, _, err := VerifyTopology(facts(rules...))
		if !errors.Is(err, ErrRulesMismatch) {
			t.Errorf("rules %v: err %v, want ErrRulesMismatch", rules, err)
		}
	}
}
