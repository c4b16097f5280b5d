// Package bench is the experiment harness: it builds the paper's workloads
// (scaled to a single machine), runs the three engines under measurement or
// cache simulation, and renders one table or series per figure of the
// evaluation section (Section V). The cmd/experiments binary and the
// repository-level benchmarks are thin wrappers around this package.
package bench

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/search"
	"repro/internal/seqgen"
)

// Scale sets experiment sizes. The paper's databases (300K–6M sequences) are
// scaled down so every experiment runs in seconds to minutes on one machine;
// relative behaviour is what the figures compare.
type Scale struct {
	UniprotSeqs int   // sequences in the uniprot_sprot-like database
	EnvNRSeqs   int   // sequences in the env_nr-like database
	Batch       int   // queries per batch (paper: 128)
	Threads     int   // worker threads (0 = GOMAXPROCS)
	Seed        int64 // generator seed
	BlockBytes  int64 // default index block size in bytes (0 = paper rule)
}

// SmallScale finishes in a few seconds; used by tests.
func SmallScale() Scale {
	return Scale{UniprotSeqs: 400, EnvNRSeqs: 600, Batch: 8, Threads: 2, Seed: 7}
}

// DefaultScale is the cmd/experiments default: minutes, not hours.
func DefaultScale() Scale {
	return Scale{UniprotSeqs: 8000, EnvNRSeqs: 16000, Batch: 32, Threads: 0, Seed: 7}
}

func (s Scale) threads() int {
	if s.Threads > 0 {
		return s.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// blockResidues resolves the index block size in residues (positions),
// applying the paper's L3 sizing rule against the *scaled* LLC model so the
// block:cache relationship matches the paper's at any workload scale.
func (s Scale) blockResidues(dbBytes int64) int64 {
	if s.BlockBytes > 0 {
		return s.BlockBytes / 4
	}
	return dbindex.OptimalBlockResidues(ScaledLLCBytes(dbBytes), s.threads())
}

// Workload is one database plus its index, engines' config, and query sets.
type Workload struct {
	Name    string
	Profile seqgen.Profile
	DB      *dbase.DB
	Index   *dbindex.Index
	Cfg     *search.Config
	// Queries holds the paper's four query sets, keyed "128", "256", "512"
	// and "mixed"; each has Scale.Batch queries.
	Queries map[string][][]alphabet.Code
}

// QuerySetNames lists the sets in presentation order.
var QuerySetNames = []string{"128", "256", "512", "mixed"}

// NewWorkload builds a workload for a profile.
func NewWorkload(name string, prof seqgen.Profile, nSeqs int, s Scale) (*Workload, error) {
	g := seqgen.New(prof, s.Seed)
	db := dbase.New(g.Database(nSeqs))
	cfg, err := search.NewConfig(matrix.Blosum62, neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold))
	if err != nil {
		return nil, err
	}
	ix, err := dbindex.Build(db, cfg.Neighbors, s.blockResidues(db.TotalResidues))
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name:    name,
		Profile: prof,
		DB:      db,
		Index:   ix,
		Cfg:     cfg,
		Queries: map[string][][]alphabet.Code{},
	}
	seqs := make([][]alphabet.Code, db.NumSeqs())
	for i := range db.Seqs {
		seqs[i] = db.Seqs[i].Data
	}
	for _, l := range []int{128, 256, 512} {
		w.Queries[fmt.Sprint(l)] = g.Queries(seqs, s.Batch, l)
	}
	w.Queries["mixed"] = g.Queries(seqs, s.Batch, 0)
	return w, nil
}

// Uniprot builds the uniprot_sprot-like workload.
func Uniprot(s Scale) (*Workload, error) {
	return NewWorkload("uniprot_sprot-like", seqgen.UniprotProfile(), s.UniprotSeqs, s)
}

// EnvNR builds the env_nr-like workload.
func EnvNR(s Scale) (*Workload, error) {
	return NewWorkload("env_nr-like", seqgen.EnvNRProfile(), s.EnvNRSeqs, s)
}

// Reindex rebuilds the workload's index with a different block size (for
// the Fig 8 sweep). The database is already length-sorted, so engines stay
// comparable.
func (w *Workload) Reindex(blockResidues int64) error {
	ix, err := dbindex.Build(w.DB, w.Cfg.Neighbors, blockResidues)
	if err != nil {
		return err
	}
	w.Index = ix
	return nil
}

// rounds is how many timed rounds timeEngines runs. It is odd, so a median
// is one round's value, and at five the [min, max] spreads of two runs of one
// steady ratio are disjoint with probability 2/C(10,5) < 1%.
const rounds = 5

// timing is every engine's wall time in every round, [round][engine].
type timing [][]time.Duration

// timeEngines is the one clock of the paper's timed figures. It times the
// engines of one comparison in a single loop: one untimed warm call each,
// then rounds rounds alternating the order (A B C, then C B A), so a drift
// of the host lands on every engine alike and cancels in a round's ratios.
func timeEngines(engines ...func()) timing {
	return interleave(engines, func(fn func()) time.Duration {
		runtime.GC() // no engine pays for the garbage of the one before it
		start := time.Now()
		fn()
		return time.Since(start)
	})
}

// interleave is timeEngines with the clock passed in as timed.
func interleave(engines []func(), timed func(func()) time.Duration) timing {
	for _, e := range engines {
		e()
	}
	t := make(timing, rounds)
	for r := range t {
		t[r] = make([]time.Duration, len(engines))
		for i := range engines {
			if r%2 == 1 {
				i = len(engines) - 1 - i
			}
			t[r][i] = timed(engines[i])
		}
	}
	return t
}

// Median is engine e's median time over the rounds.
func (t timing) Median(e int) time.Duration {
	d := make([]time.Duration, len(t))
	for r := range t {
		d[r] = t[r][e]
	}
	slices.Sort(d)
	return d[len(d)/2]
}

// Ratio is engine a's time over engine b's, taken within each round.
func (t timing) Ratio(a, b int) spread {
	v := make([]float64, len(t))
	for r := range t {
		v[r] = float64(t[r][a]) / float64(t[r][b])
	}
	slices.Sort(v)
	return spread{Median: v[len(v)/2], Min: v[0], Max: v[len(v)-1]}
}

// spread is a ratio's median over the rounds and its range.
type spread struct{ Median, Min, Max float64 }

func (s spread) String() string { return fmt.Sprintf("%.2fx [%.2f, %.2f]", s.Median, s.Min, s.Max) }
