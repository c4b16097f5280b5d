// Package cluster is the scaling simulator behind Fig 10. We cannot run 128
// dual-socket nodes, so — per the substitution policy in DESIGN.md — the
// makespan of both systems' decompositions is computed from a calibrated
// cost model:
//
//   - per-task compute cost is proportional to query length × partition
//     residues, with the constant (seconds per residue-pair) measured from
//     real runs of the corresponding engine on this machine (see the
//     experiment harness), one constant per engine since mpiBLAST runs
//     query-indexed NCBI inside each process while muBLASTP runs the
//     decoupled engine;
//   - mpiBLAST (Section IV-D2): one database fragment per worker process
//     (16 processes/node, no threading), every query runs on every
//     fragment, and a dedicated super node dispatches queries and merges
//     each query's per-fragment results serially — so per-query merge work
//     grows with the process count while per-process compute shrinks;
//   - muBLASTP: one process per node with 16 threads, round-robin
//     length-sorted partitions, and a single batch merge at the end.
//
// The load imbalance enters through the per-partition residue counts the
// caller supplies (contiguous unsorted fragments for mpiBLAST, round-robin
// sorted partitions for muBLASTP), exactly the paper's data-partitioning
// difference. The structure being modelled runs for real on one path:
// blast.Database.Shards, SearchShardBatchCtx per shard, and MergeShards.
package cluster

// CostParams is the calibrated cost model.
type CostParams struct {
	// SecPerCellNCBI is seconds of single-core query-indexed search per
	// (query residue × subject residue); SecPerCellMu likewise for the
	// muBLASTP engine. Calibrate from real runs.
	SecPerCellNCBI float64
	SecPerCellMu   float64
	// ThreadEff is the intra-node threading efficiency of muBLASTP in (0,1].
	ThreadEff float64
	// Latency is the per-message network latency in seconds.
	Latency float64
	// MergePerResult is the super node's cost to fold one worker's result
	// for one query into mpiBLAST's per-query consolidated output (result
	// deserialization + re-ranking + report formatting, serialized at the
	// master — the per-query merging Section IV-D3 avoids).
	MergePerResult float64
	// BatchMergePerResult is muBLASTP's cost per (node, query) result in
	// the single end-of-batch merge: pre-ranked lists are concatenated and
	// re-ranked once, with no per-query synchronization, so it is much
	// cheaper than MergePerResult.
	BatchMergePerResult float64
	// DispatchPerTask is the super node's cost to schedule one
	// (query, process) work unit (mpiBLAST's dedicated scheduler).
	DispatchPerTask float64
}

// DefaultCostParams returns coordination constants representative of a
// QDR-InfiniBand cluster of the paper's era. Compute constants must still
// be calibrated (they are machine- and implementation-specific).
func DefaultCostParams() CostParams {
	return CostParams{
		ThreadEff:           0.85,
		Latency:             20e-6,
		MergePerResult:      15e-6,
		BatchMergePerResult: 2e-6,
		DispatchPerTask:     2e-6,
	}
}

// Makespan is a simulated run outcome.
type Makespan struct {
	Total      float64 // wall-clock seconds
	Compute    float64 // max per-worker compute time
	Coordinate float64 // scheduling + merge + communication on the critical path
}

// SimulateMPIBlast computes the makespan of an mpiBLAST-style run: procs
// worker processes (len(fragResidues) == procs), each owning one fragment;
// every query is dispatched to every process, and a query's consolidated
// result exists only when its slowest fragment finishes (per-query
// synchronization — the straggler cost that grows with the order statistic
// of the fragment distribution). The super node serializes dispatch and
// per-query merging, whose cost grows with the process count.
func SimulateMPIBlast(queryLens []int, fragResidues []int64, p CostParams) Makespan {
	procs := len(fragResidues)
	if procs == 0 || len(queryLens) == 0 {
		return Makespan{}
	}
	clock := 0.0 // lock-step worker frontier
	var maxCompute float64
	master := 0.0
	for _, ql := range queryLens {
		dispatch := p.DispatchPerTask*float64(procs) + p.Latency
		slowest := 0.0
		for w := 0; w < procs; w++ {
			cost := p.SecPerCellNCBI * float64(ql) * float64(fragResidues[w])
			if cost > slowest {
				slowest = cost
			}
		}
		clock += dispatch + slowest
		// Master merges this query's procs results once the last arrives;
		// master work overlaps the workers' next query.
		if clock > master {
			master = clock
		}
		master += p.Latency + p.MergePerResult*float64(procs)
	}
	maxCompute = clock
	return Makespan{Total: master, Compute: maxCompute, Coordinate: master - maxCompute}
}

// SimulateMuBLASTP computes the makespan of a muBLASTP run: one process per
// node with threadsPerNode threads, partResidues[i] residues on node i, all
// queries searched locally, one batch gather+merge at the end.
func SimulateMuBLASTP(queryLens []int, partResidues []int64, threadsPerNode int, p CostParams) Makespan {
	nodes := len(partResidues)
	if nodes == 0 || len(queryLens) == 0 {
		return Makespan{}
	}
	if threadsPerNode < 1 {
		threadsPerNode = 1
	}
	var totalQ int64
	for _, ql := range queryLens {
		totalQ += int64(ql)
	}
	maxCompute := 0.0
	for _, res := range partResidues {
		c := p.SecPerCellMu * float64(totalQ) * float64(res) /
			(float64(threadsPerNode) * p.ThreadEff)
		if c > maxCompute {
			maxCompute = c
		}
	}
	// One gather of per-node batch results, then one merge pass at rank 0.
	coord := p.Latency*float64(nodes) +
		p.BatchMergePerResult*float64(nodes)*float64(len(queryLens))
	return Makespan{Total: maxCompute + coord, Compute: maxCompute, Coordinate: coord}
}

// ScalingPoint is one node count on a Fig 10 curve.
type ScalingPoint struct {
	Nodes      int
	Seconds    float64
	Speedup    float64 // vs the 1-node run of the same system
	Efficiency float64 // Speedup / Nodes
}

// ScalingCurve evaluates a system at several node counts. runAt returns the
// makespan for a node count; the first entry anchors speedup.
func ScalingCurve(nodeCounts []int, runAt func(nodes int) Makespan) []ScalingPoint {
	out := make([]ScalingPoint, len(nodeCounts))
	var base float64
	for i, n := range nodeCounts {
		m := runAt(n)
		if i == 0 {
			base = m.Total * float64(n)
		}
		out[i] = ScalingPoint{
			Nodes:      n,
			Seconds:    m.Total,
			Speedup:    base / (m.Total * float64(nodeCounts[0])),
			Efficiency: base / (m.Total * float64(n)),
		}
	}
	return out
}
