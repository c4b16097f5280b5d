package blast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/faultinject"
	"repro/internal/search"
)

func batchQueries(seqs []Sequence, n int) []string {
	out := make([]string, 0, n)
	for _, s := range seqs {
		if len(s.Residues) >= 120 {
			out = append(out, s.Residues[3:117])
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func renderHits(r *Result) string {
	s := fmt.Sprintf("%d hits\n", len(r.Hits))
	for _, h := range r.Hits {
		s += fmt.Sprintf("%s %d %v %v %d-%d %d-%d %s\n",
			h.SubjectName, h.Score, h.BitScore, h.EValue,
			h.QueryStart, h.QueryEnd, h.SubjectStart, h.SubjectEnd, h.Ops)
	}
	return s
}

func TestSearchBatchCtxMatchesSearchBatch(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := batchQueries(seqs, 4)
	want, err := db.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	br, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil || br.Err != nil {
		t.Fatalf("clean ctx batch: err=%v batchErr=%v", err, br.Err)
	}
	if br.CompletedCount() != len(queries) {
		t.Fatalf("completed %d of %d", br.CompletedCount(), len(queries))
	}
	for i := range queries {
		if got, exp := renderHits(br.Results[i]), renderHits(want[i]); got != exp {
			t.Errorf("query %d differs:\n%s\nvs\n%s", i, got, exp)
		}
	}
}

func TestSearchBatchCtxTimeoutPartial(t *testing.T) {
	_, seqs := testDatabase(t)
	p := DefaultParams()
	p.BlockResidues = 4096
	p.Threads = 2
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	queries := batchQueries(seqs, 6)
	if err := faultinject.Enable("core.hitdetect=delay:10ms", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	br, err := db.SearchBatchCtx(ctx, queries)
	faultinject.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(br.Err, ErrDeadline) {
		t.Fatalf("batch err = %v, want ErrDeadline", br.Err)
	}
	if !br.Sched.DeadlineExceeded {
		t.Error("SchedStats.DeadlineExceeded not set")
	}
	if br.CompletedCount() == len(queries) {
		t.Error("deadline batch completed everything; no partial case exercised")
	}
	for i, done := range br.Completed {
		if done && br.QueryErrs[i] != nil {
			t.Errorf("completed query %d has error %v", i, br.QueryErrs[i])
		}
		if !done {
			var qc *search.QueryCancelledError
			if !errors.As(br.QueryErrs[i], &qc) {
				t.Errorf("incomplete query %d: err=%v, want QueryCancelledError", i, br.QueryErrs[i])
			}
		}
	}
}

func TestSearchBatchCtxCancellation(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := batchQueries(seqs, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := db.SearchBatchCtx(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(br.Err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", br.Err)
	}
	if br.CompletedCount() != 0 {
		t.Errorf("pre-cancelled batch completed %d queries", br.CompletedCount())
	}
}

func TestSearchBatchCtxRejectsBadQuery(t *testing.T) {
	db, seqs := testDatabase(t)
	if _, err := db.SearchBatchCtx(context.Background(), []string{seqs[0].Residues, "B@D"}); err == nil {
		t.Fatal("invalid residues accepted")
	}
}

// TestSearchReportsATaskPanic: Search runs on the batch scheduler, so a
// panicking (block, query) task comes back as the query's typed error
// instead of crashing the caller, and the next search is whole.
func TestSearchReportsATaskPanic(t *testing.T) {
	db, seqs := testDatabase(t)
	q := queryFrom(seqs, 190)
	if err := faultinject.Enable("core.hitdetect=panic#1", 1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(q)
	faultinject.Disable()
	var perr *search.TaskPanicError
	if !errors.As(err, &perr) || res != nil {
		t.Fatalf("Search with a panicking task: result %v, error %v; want a *search.TaskPanicError", res, err)
	}
	if res, err := db.Search(q); err != nil {
		t.Fatalf("Search after the fault: %v", err)
	} else if len(res.Hits) == 0 {
		t.Fatal("Search after the fault found nothing")
	}
}

// TestSearchRefusesAnOverlongQuery: a query one residue past MaxQueryLen is
// refused before any task runs, by Search and by a batch, with a
// *QueryTooLongError that names the query and the limit; one of MaxQueryLen
// residues is searched whole.
func TestSearchRefusesAnOverlongQuery(t *testing.T) {
	db, seqs := testDatabase(t)
	rng := rand.New(rand.NewSource(9))
	letters := make([]byte, MaxQueryLen+1)
	for i := range letters {
		letters[i] = alphabet.LetterFor(alphabet.Code(rng.Intn(20)))
	}
	long := string(letters)
	res, err := db.Search(long)
	var tooLong *QueryTooLongError
	if !errors.As(err, &tooLong) || res != nil || tooLong.Query != 0 || tooLong.Len != MaxQueryLen+1 {
		t.Fatalf("Search of %d residues: result %v, error %v; want a *QueryTooLongError for query 0", len(long), res, err)
	}
	if want := fmt.Sprint(MaxQueryLen); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the %s-residue limit", err, want)
	}
	br, err := db.SearchBatchCtx(context.Background(), []string{seqs[0].Residues, long})
	if !errors.As(err, &tooLong) || br != nil || tooLong.Query != 1 {
		t.Fatalf("batch with query 1 over the limit: result %v, error %v; want a *QueryTooLongError for query 1", br, err)
	}
	if res, err := db.Search(long[:MaxQueryLen]); err != nil || res.QueryLen != MaxQueryLen {
		t.Fatalf("Search of MaxQueryLen residues: %v", err)
	}
}

// TestSelfSearchPastUngappedPosition16Bits is the engine-level pin of the
// ungapped kernel's position field: a 70 000-residue random sequence, held
// whole as one subject beside 20 random 300-residue decoys, searched against
// itself walks ungapped extensions
// whose best positions lie past 0xFFFF. The full-length self-hit alone cannot
// see a narrower field (a truncated walk still lands on it), so the
// extension counts are the pin.
func TestSelfSearchPastUngappedPosition16Bits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet.LetterFor(alphabet.Code(rng.Intn(20)))
		}
		return string(b)
	}
	const n = 70000
	long := random(n)
	seqs := []Sequence{{Name: "long", Residues: long}}
	for i := 0; i < 20; i++ {
		seqs = append(seqs, Sequence{Name: fmt.Sprintf("decoy%d", i), Residues: random(300)})
	}
	p := DefaultParams()
	p.SplitLongerThan = -1
	p.BlockResidues = 1 << 18
	p.Threads = 1
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits for a self-search")
	}
	h := res.Hits[0]
	if h.SubjectName != "long" || h.QueryStart != 0 || h.QueryEnd != n || h.SubjectStart != 0 || h.SubjectEnd != n || h.Identity != 1 {
		t.Fatalf("top hit %s q[%d,%d) s[%d,%d) identity %v, want long [0,%d) on both sides, identity 1",
			h.SubjectName, h.QueryStart, h.QueryEnd, h.SubjectStart, h.SubjectEnd, h.Identity, n)
	}
	if res.Stats.Extensions != 1771408 || res.Stats.Kept != 5973 {
		t.Fatalf("ungapped extensions %d, kept %d; want 1 771 408 and 5 973", res.Stats.Extensions, res.Stats.Kept)
	}
}

func TestLoadShortReadIsTypedCorruption(t *testing.T) {
	db, _ := testDatabase(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Sanity: the intact container loads.
	if _, err := Load(bytes.NewReader(full), DefaultParams()); err != nil {
		t.Fatalf("intact container rejected: %v", err)
	}
	// A stream cut short at several depths must always produce a typed
	// error — never a panic or a silently truncated database.
	for _, limit := range []int{0, 4, 64, len(full) / 2, len(full) - 1} {
		spec := fmt.Sprintf("db.read=shortread:%d", limit)
		if err := faultinject.Enable(spec, 1); err != nil {
			t.Fatal(err)
		}
		_, err := Load(bytes.NewReader(full), DefaultParams())
		faultinject.Disable()
		if err == nil {
			t.Fatalf("limit %d: truncated container loaded", limit)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Errorf("limit %d: error %v not typed as corruption", limit, err)
		}
	}
}
