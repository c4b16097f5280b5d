package blast

import (
	"errors"
	"fmt"
)

// RulesVersion names the rules by which this build's engine computes a
// result from a database: seeding, the two-hit rule, the extension cutoffs,
// gapped scoring and ranking. Their parameters (T = 11, A = 40, X-drops
// 16/38, gaps 11/1) are this build's constants, not Params, so a
// RulesVersion fixes them too. Two builds with one RulesVersion reply to a
// query byte for byte alike from one container; a change that moves reply
// bytes without moving the container fingerprint bumps it, and regenerates
// the engine's golden results (TestRulesVersionPinsGoldens ties the two).
//
//  1. The rules before the gap trigger became NCBI's: an ungapped
//     alignment entered the gapped stage when it scored above 38 raw.
//  2. It enters at NCBI's gap trigger S1 or above: 22 bits through the
//     matrix's ungapped statistics, 41 raw on BLOSUM62.
//  3. NCBI's two-hit extension: a pair's extension walks right only if the
//     left walk's best reaches the end of the first hit's word; otherwise
//     it is the seed word plus its left half, and the diagonal advances only
//     to the hit.
const RulesVersion = 3

// ErrRulesMismatch marks a shard set whose replicas report different
// RulesVersions: they answer one query differently, so a merge of their
// replies is no one build's monolithic answer.
var ErrRulesMismatch = errors.New("replicas compute results by different rules")

// ReplicaFacts is what one replica of one shard says it holds, whichever way
// it was asked: a VerifyFile report of a container on disk, or a shard
// daemon's /shard/info reply.
type ReplicaFacts struct {
	Name          string // path or worker name, for error messages
	Fingerprint   Fingerprint
	RulesVersion  int // of the build searching it: the daemon's, or this build's for a file
	Sequences     int
	TotalResidues int64
	// GlobalSequences/GlobalResidues are the replica's belief about the whole
	// logical database (a daemon started with -global-*). Zero from a file,
	// which holds no such belief: the set then defines its own totals.
	GlobalSequences int64
	GlobalResidues  int64
	// EValueCutoff/MaxResults are the result-shaping settings the replica
	// searches with (a daemon's -evalue/-max-hits). Zero from a file, which
	// is searched with whatever its reader sets.
	EValueCutoff float64
	MaxResults   int
	// Ingest-store provenance; zero for a plain container.
	ManifestSeq  int64
	ManifestHash string
}

// VerifyTopology is the one statement of what makes a set of shard replicas
// one servable logical database; shards[s][r] is replica r of shard s. Every
// replica carries the same build fingerprint (one makedb run — a mixed set
// merges garbage silently, since the merge trusts ids and E-value
// statistics), is searched by the same RulesVersion (ErrRulesMismatch
// otherwise: the fingerprint does not see a change of rules) with the same
// E-value cutoff and per-query hit cap, and holds the same belief about the
// global search space; replicas of
// one shard hold the same slice at the same manifest commit (equal totals do
// not prove equal sequences once deltas are involved); shard s of N holds
// exactly ceil((G-s)/N) of the G global sequences, the round-robin deal the
// id restoration local*N + s presumes; and the shards sum to G. It returns
// the agreed fingerprint and global totals.
func VerifyTopology(shards [][]ReplicaFacts) (fp Fingerprint, globalSeqs, globalRes int64, err error) {
	n := int64(len(shards))
	if n == 0 {
		return fp, 0, 0, fmt.Errorf("blast: no shards to verify")
	}
	var sumSeqs, sumRes int64
	for s, reps := range shards {
		if len(reps) == 0 {
			return fp, 0, 0, fmt.Errorf("blast: shard %d has no replicas", s)
		}
		first, fleet := reps[0], shards[0][0]
		for _, r := range reps {
			switch {
			case r.Fingerprint != fleet.Fingerprint:
				err = mismatchf("shard %d replica %s: fingerprint %+v differs from the set's %+v — the set mixes different builds",
					s, r.Name, r.Fingerprint, fleet.Fingerprint)
			case r.RulesVersion != fleet.RulesVersion:
				err = fmt.Errorf("blast: %w: shard %d replica %s runs rules version %d, the set's first replica %d — a fleet must not mix them",
					ErrRulesMismatch, s, r.Name, r.RulesVersion, fleet.RulesVersion)
			case r.GlobalSequences != fleet.GlobalSequences || r.GlobalResidues != fleet.GlobalResidues:
				err = mismatchf("shard %d replica %s: global space %d seqs/%d residues, the set says %d/%d",
					s, r.Name, r.GlobalSequences, r.GlobalResidues, fleet.GlobalSequences, fleet.GlobalResidues)
			case r.EValueCutoff != fleet.EValueCutoff || r.MaxResults != fleet.MaxResults:
				err = mismatchf("shard %d replica %s: searches with E-value cutoff %g and %d hits per query, the set with %g and %d",
					s, r.Name, r.EValueCutoff, r.MaxResults, fleet.EValueCutoff, fleet.MaxResults)
			case r.Sequences != first.Sequences || r.TotalResidues != first.TotalResidues:
				err = mismatchf("shard %d replica %s: %d seqs/%d residues, shard peer says %d/%d; replicas must hold the same slice",
					s, r.Name, r.Sequences, r.TotalResidues, first.Sequences, first.TotalResidues)
			case r.ManifestSeq != first.ManifestSeq || r.ManifestHash != first.ManifestHash:
				err = mismatchf("shard %d replica %s: manifest %d/%s, shard peer says %d/%s — delta propagation incomplete, refusing mixed-manifest topology",
					s, r.Name, r.ManifestSeq, r.ManifestHash, first.ManifestSeq, first.ManifestHash)
			}
			if err != nil {
				return fp, 0, 0, err
			}
		}
		sumSeqs += int64(first.Sequences)
		sumRes += first.TotalResidues
	}
	fleet := shards[0][0]
	g, gres := fleet.GlobalSequences, fleet.GlobalResidues
	if g == 0 && gres == 0 {
		g, gres = sumSeqs, sumRes
	}
	// A set that verifies replica by replica but fails the round-robin fit
	// was assembled from the wrong files or in the wrong order, and the merge
	// would restore wrong monolithic ids.
	for s, reps := range shards {
		if want := (g - int64(s) + n - 1) / n; int64(reps[0].Sequences) != want {
			return fp, 0, 0, mismatchf("shard %d (%s) holds %d sequences; a round-robin deal of %d over %d shards puts %d there — wrong file or wrong order",
				s, reps[0].Name, reps[0].Sequences, g, n, want)
		}
	}
	if sumSeqs != g {
		return fp, 0, 0, mismatchf("shards hold %d sequences, global says %d", sumSeqs, g)
	}
	return fleet.Fingerprint, g, gres, nil
}

// ShardSetInfo is what VerifyShardSet reports about a coherent shard set.
type ShardSetInfo struct {
	NumShards      int
	Fingerprint    Fingerprint
	TotalSequences int
	TotalResidues  int64
	PerShard       []*ContainerInfo // replica 0's report, in shard order
}

// VerifyShardSet validates sharded container files as a set, not just file
// by file: every container passes its own full Verify, then the set passes
// VerifyTopology. paths[s] lists the replicas of shard s, in shard order.
//
// This is the cross-check `mublastp -verifydb a,b,c` and `makedb -shards`
// run on files; a single file degenerates to VerifyFile.
func VerifyShardSet(paths [][]string) (*ShardSetInfo, error) {
	info := &ShardSetInfo{NumShards: len(paths), PerShard: make([]*ContainerInfo, len(paths))}
	facts := make([][]ReplicaFacts, len(paths))
	for s, reps := range paths {
		for r, path := range reps {
			ci, err := VerifyFile(path)
			if err != nil {
				return nil, fmt.Errorf("blast: shard %d replica %d (%s): %w", s, r, path, err)
			}
			if r == 0 {
				info.PerShard[s] = ci
			}
			facts[s] = append(facts[s], ReplicaFacts{Name: path, Fingerprint: ci.Fingerprint, RulesVersion: RulesVersion,
				Sequences: ci.NumSequences, TotalResidues: ci.TotalResidues})
		}
	}
	fp, seqs, res, err := VerifyTopology(facts)
	if err != nil {
		return nil, err
	}
	info.Fingerprint, info.TotalSequences, info.TotalResidues = fp, int(seqs), res
	return info, nil
}
