package cluster

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/seqgen"
)

func modelWorkload(nQueries, nSeqs int, seed int64) ([]int, []int) {
	rng := rand.New(rand.NewSource(seed))
	g := seqgen.New(seqgen.EnvNRProfile(), seed)
	queryLens := make([]int, nQueries)
	for i := range queryLens {
		queryLens[i] = 128 << (rng.Intn(3)) // 128/256/512
	}
	seqLens := make([]int, nSeqs)
	for i := range seqLens {
		seqLens[i] = g.Length()
	}
	return queryLens, seqLens
}

func calibrated() CostParams {
	p := DefaultCostParams()
	// Representative calibration: muBLASTP ~3x faster per cell than NCBI
	// (Fig 9's single-node advantage).
	p.SecPerCellNCBI = 3e-9
	p.SecPerCellMu = 1e-9
	return p
}

func TestMuBLASTPScalesNearlyLinearly(t *testing.T) {
	queryLens, seqLens := modelWorkload(128, 200000, 1)
	p := calibrated()
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	curve := ScalingCurve(counts, func(nodes int) Makespan {
		parts := roundRobinResidues(seqLens, nodes)
		return SimulateMuBLASTP(queryLens, parts, 16, p)
	})
	for _, pt := range curve {
		if pt.Nodes >= 2 && (pt.Efficiency < 0.80 || pt.Efficiency > 1.02) {
			t.Errorf("muBLASTP efficiency at %d nodes = %.2f, want ~0.88-0.92 band", pt.Nodes, pt.Efficiency)
		}
	}
}

func TestMPIBlastScalesPoorly(t *testing.T) {
	queryLens, seqLens := modelWorkload(128, 200000, 1)
	p := calibrated()
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	curve := ScalingCurve(counts, func(nodes int) Makespan {
		frags := contiguousResidues(seqLens, nodes*16)
		return SimulateMPIBlast(queryLens, frags, p)
	})
	last := curve[len(curve)-1]
	if last.Efficiency > 0.70 {
		t.Errorf("mpiBLAST efficiency at 128 nodes = %.2f, expected well below muBLASTP's", last.Efficiency)
	}
	if last.Efficiency < 0.10 {
		t.Errorf("mpiBLAST efficiency at 128 nodes = %.2f, implausibly low", last.Efficiency)
	}
	// Efficiency should decline with node count.
	if curve[1].Efficiency < last.Efficiency {
		t.Errorf("mpiBLAST efficiency not declining: %v -> %v", curve[1].Efficiency, last.Efficiency)
	}
}

func TestMuBLASTPBeatsMPIBlastEverywhere(t *testing.T) {
	queryLens, seqLens := modelWorkload(128, 200000, 1)
	p := calibrated()
	prevRatio := 0.0
	for _, nodes := range []int{1, 8, 32, 128} {
		mu := SimulateMuBLASTP(queryLens, roundRobinResidues(seqLens, nodes), 16, p)
		mb := SimulateMPIBlast(queryLens, contiguousResidues(seqLens, nodes*16), p)
		ratio := mb.Total / mu.Total
		if ratio <= 1 {
			t.Errorf("%d nodes: muBLASTP (%.1fs) not faster than mpiBLAST (%.1fs)", nodes, mu.Total, mb.Total)
		}
		if ratio < prevRatio {
			t.Errorf("%d nodes: speedup ratio %.2f declined from %.2f (paper: gap widens with nodes)",
				nodes, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// The paper reports 2.2x at small node counts growing to 8.9x at 128.
	if prevRatio < 2 {
		t.Errorf("128-node speedup over mpiBLAST %.2f, want >= 2", prevRatio)
	}
}

func roundRobinResidues(seqLens []int, parts int) []int64 {
	sorted := append([]int(nil), seqLens...)
	sort.Ints(sorted)
	out := make([]int64, parts)
	for i, l := range sorted {
		out[i%parts] += int64(l)
	}
	return out
}

func contiguousResidues(seqLens []int, parts int) []int64 {
	out := make([]int64, parts)
	n := len(seqLens)
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		for i := lo; i < hi; i++ {
			out[p] += int64(seqLens[i])
		}
	}
	return out
}

func TestSimulatorEdgeCases(t *testing.T) {
	p := calibrated()
	if m := SimulateMPIBlast(nil, []int64{100}, p); m.Total != 0 {
		t.Error("empty query list produced nonzero makespan")
	}
	if m := SimulateMuBLASTP([]int{128}, nil, 16, p); m.Total != 0 {
		t.Error("zero nodes produced nonzero makespan")
	}
	m := SimulateMuBLASTP([]int{128}, []int64{1000}, 0, p)
	if m.Total <= 0 {
		t.Error("threads clamp failed")
	}
}
