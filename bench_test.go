// Benchmarks regenerating the paper's tables and figures (one benchmark or
// benchmark family per figure — see DESIGN.md's per-experiment index), plus
// the Section IV-B sort and kernel microbenchmarks.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The cmd/experiments binary produces the corresponding human-readable
// tables; these benchmarks give the same comparisons in testing.B form.
package repro_test

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbindex"
	"repro/internal/gapped"
	"repro/internal/hit"
	"repro/internal/hitsort"
	"repro/internal/matrix"
	"repro/internal/qindex"
	"repro/internal/seqgen"
	"repro/internal/sw"
)

// Shared fixtures, built once.
var (
	fixOnce sync.Once
	fixUni  *bench.Workload
	fixEnv  *bench.Workload
)

func fixtures(b *testing.B) (*bench.Workload, *bench.Workload) {
	b.Helper()
	fixOnce.Do(func() {
		s := bench.Scale{UniprotSeqs: 1500, EnvNRSeqs: 2500, Batch: 16, Threads: 0, Seed: 7}
		var err error
		if fixUni, err = bench.Uniprot(s); err != nil {
			panic(err)
		}
		if fixEnv, err = bench.EnvNR(s); err != nil {
			panic(err)
		}
	})
	return fixUni, fixEnv
}

// --- Fig 2: query-indexed vs db-indexed single-query latency ---

func BenchmarkFig2_NCBI(b *testing.B) {
	_, env := fixtures(b)
	e := baseline.NewQueryIndexed(env.Cfg, env.DB)
	q := env.Queries["512"][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(0, q)
	}
}

func BenchmarkFig2_NCBIdb(b *testing.B) {
	_, env := fixtures(b)
	e := baseline.NewDBIndexed(env.Cfg, env.Index)
	q := env.Queries["512"][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(0, q)
	}
}

func BenchmarkFig2_MuBLASTP(b *testing.B) {
	_, env := fixtures(b)
	e := core.New(env.Cfg, env.Index)
	q := env.Queries["512"][:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SearchBatch(q, 1)
	}
}

// --- Fig 6 / Section IV-C: the pre-filtered pipeline ---
//
// The post-filter arm ("off") was measured once and deleted with the pipeline
// it selected; the sorter and prefilter ablation table in EXPERIMENTS.md has
// the numbers. The "on" sub-benchmark keeps its name so runs stay comparable.

func BenchmarkFig6_Prefilter(b *testing.B) {
	uni, _ := fixtures(b)
	b.Run("on", func(b *testing.B) {
		e := core.New(uni.Cfg, uni.Index)
		qs := uni.Queries["256"]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.SearchBatch(qs[i%len(qs):][:1], 1)
		}
	})
}

// --- Fig 7: synthetic database generation ---

func BenchmarkFig7_Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := seqgen.New(seqgen.EnvNRProfile(), int64(i))
		g.Database(500)
	}
}

// --- Fig 8: block-size sweep ---

func BenchmarkFig8_BlockSize(b *testing.B) {
	uni, _ := fixtures(b)
	for _, residues := range []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10} {
		ix, err := dbindex.Build(uni.DB, uni.Cfg.Neighbors, residues)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bLabel(residues*4), func(b *testing.B) {
			e := core.New(uni.Cfg, ix)
			qs := uni.Queries["256"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SearchBatch(qs[i%len(qs):][:1], 1)
			}
		})
	}
}

func bLabel(bytes int64) string {
	if bytes >= 1<<20 {
		return "block_" + itoa(bytes>>20) + "MB"
	}
	return "block_" + itoa(bytes>>10) + "KB"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Fig 9: multithreaded batch comparison ---

func BenchmarkFig9_Batch(b *testing.B) {
	uni, env := fixtures(b)
	for _, w := range []*bench.Workload{uni, env} {
		for _, set := range []string{"128", "512", "mixed"} {
			qs := w.Queries[set]
			b.Run(w.Name+"/NCBI/"+set, func(b *testing.B) {
				e := baseline.NewQueryIndexed(w.Cfg, w.DB)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.SearchBatch(qs, 0)
				}
			})
			b.Run(w.Name+"/NCBIdb/"+set, func(b *testing.B) {
				e := baseline.NewDBIndexed(w.Cfg, w.Index)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.SearchBatch(qs, 0)
				}
			})
			b.Run(w.Name+"/muBLASTP/"+set, func(b *testing.B) {
				e := core.New(w.Cfg, w.Index)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.SearchBatch(qs, 0)
				}
			})
		}
	}
}

// --- Fig 10: scaling simulation ---

func BenchmarkFig10_Scaling(b *testing.B) {
	g := seqgen.New(seqgen.EnvNRProfile(), 7)
	seqLens := make([]int, 100000)
	for i := range seqLens {
		seqLens[i] = g.Length()
	}
	queryLens := make([]int, 128)
	for i := range queryLens {
		queryLens[i] = g.Length()
	}
	p := cluster.DefaultCostParams()
	p.SecPerCellNCBI, p.SecPerCellMu = 3e-9, 1e-9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{1, 16, 128} {
			frag := make([]int64, nodes*16)
			part := make([]int64, nodes)
			for j, l := range seqLens {
				frag[j%(nodes*16)] += int64(l)
				part[j%nodes] += int64(l)
			}
			cluster.SimulateMPIBlast(queryLens, frag, p)
			cluster.SimulateMuBLASTP(queryLens, part, 16, p)
		}
	}
}

// --- Section IV-B: hit reordering ---
//
// The generic LSD radix sort on the buffer the deleted MSD, merge and
// two-level sorters were measured against (the sorter and prefilter ablation
// table in EXPERIMENTS.md); the sort the engine runs, hitsort.LSDPairs, is
// benchmarked beside it in internal/hitsort (BenchmarkDiagonalSort).

func benchSort(b *testing.B, n int, sorter func([]hit.Pair)) {
	coder, err := hit.NewKeyCoder(2048, 2048)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	src := make([]hit.Pair, n)
	for i := range src {
		src[i] = hit.Pair{Key: coder.Encode(rng.Intn(2048), rng.Intn(2048)), QOff: int32(i)}
	}
	work := make([]hit.Pair, n)
	b.SetBytes(int64(n * 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sorter(work)
	}
}

func BenchmarkHitsort_LSD(b *testing.B) {
	scratch := make([]hit.Pair, 1<<17)
	benchSort(b, 1<<17, func(p []hit.Pair) { hitsort.LSD(p, 22, scratch) })
}

// --- Kernel microbenchmarks ---

func BenchmarkGappedExtend(b *testing.B) {
	g := seqgen.New(seqgen.UniprotProfile(), 3)
	q := g.Sequence(512)
	s := append([]alphabet.Code(nil), q...)
	al := gapped.NewAligner(matrix.Blosum62, gapped.DefaultParams())
	prof := matrix.NewProfile(matrix.Blosum62, q)
	pre := al.ExtendScoreProf(prof, q, s, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.TracebackProf(prof, q, s, 256, 256, pre)
	}
}

func BenchmarkSmithWaterman(b *testing.B) {
	g := seqgen.New(seqgen.UniprotProfile(), 3)
	q := g.Sequence(256)
	s := g.Sequence(256)
	b.SetBytes(int64(len(q)) * int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Score(matrix.Blosum62, q, s, 11, 1)
	}
}

func BenchmarkQueryIndexBuild(b *testing.B) {
	uni, _ := fixtures(b)
	q := uni.Queries["512"][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qindex.Build(q, uni.Cfg.Neighbors)
	}
}

func BenchmarkDBIndexBuild(b *testing.B) {
	uni, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dbindex.Build(uni.DB, uni.Cfg.Neighbors, 128<<10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGappedExtendScoreOnly(b *testing.B) {
	g := seqgen.New(seqgen.UniprotProfile(), 3)
	q := g.Sequence(512)
	s := append([]alphabet.Code(nil), q...)
	al := gapped.NewAligner(matrix.Blosum62, gapped.DefaultParams())
	prof := matrix.NewProfile(matrix.Blosum62, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.ExtendScoreProf(prof, q, s, 256, 256)
	}
}

// --- The database container: built once, saved, verified and loaded many times ---

var (
	containerOnce sync.Once
	containerDB   *blast.Database
)

// containerFixture is a uniprot-profile database of one million residues in
// the benchmarks' block size.
func containerFixture(b *testing.B) *blast.Database {
	b.Helper()
	containerOnce.Do(func() {
		g := seqgen.New(seqgen.UniprotProfile(), 7)
		var seqs []blast.Sequence
		total := 0
		for total < 1_000_000 {
			for _, c := range g.Database(64) {
				seqs = append(seqs, blast.Sequence{Name: "s" + itoa(int64(len(seqs))), Residues: alphabet.String(c)})
				total += len(c)
			}
		}
		p := blast.DefaultParams()
		p.BlockResidues = 128 << 10
		var err error
		if containerDB, err = blast.NewDatabase(seqs, p); err != nil {
			panic(err)
		}
	})
	return containerDB
}

// BenchmarkContainerRoundTrip times the three container passes of a set-up
// (Save into io.Discard, Verify, Load from memory) on a one-million-residue
// database; MB/s is container bytes per second.
func BenchmarkContainerRoundTrip(b *testing.B) {
	db := containerFixture(b)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := db.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := blast.Verify(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := blast.Load(bytes.NewReader(data), blast.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
