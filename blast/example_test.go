package blast_test

import (
	"context"
	"fmt"
	"log"
	"slices"
	"sync"

	"repro/blast"
)

// Example demonstrates the index-once, search-many workflow: build a
// database, search a peptide, and read the ranked hits.
func Example() {
	db, err := blast.NewDatabase([]blast.Sequence{
		{Name: "P53_HUMAN", Residues: "SVTCTYSPALNKMFCQLAKTCPVQLWVDSTPPPGTRVRAMAIYKQSQHMTEVVRRCPHHE"},
		{Name: "RECA_ECOLI", Residues: "MAIDENKQKALAAALGQIEKQFGKGSIMRLGEDRSMDVETISTGSLSLDIALGAGGLPMG"},
	}, blast.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	res, err := db.Search("TCTYSPALNKMFCQLAKTCPVELWV")
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range res.Hits {
		fmt.Printf("%s raw=%d identity=%.0f%%\n", h.SubjectName, h.Score, 100*h.Identity)
	}
	// Output:
	// P53_HUMAN raw=140 identity=96%
}

// ExampleDatabase_Shards is the paper's inter-node search (Section IV-D) on
// one machine: split the database into length-sorted round-robin shards,
// search every shard concurrently against the whole database's statistics,
// and merge the batch once at the end. The merged hits equal the unsplit
// database's field for field, so their rendered report is byte-identical.
func ExampleDatabase_Shards() {
	db, err := blast.NewDatabase([]blast.Sequence{
		{Name: "UBIQ_HUMAN", Residues: "MQIFVKTLTGKTITLEVEPSDTIENVKAKIQDKEGIPPDQQRLIFAGKQLEDGRTLSDYNIQKESTLHLVLRLRGG"},
		{Name: "NEDD8_HUMAN", Residues: "MLIKVKTLTGKEIEIDIEPTDKVERIKERVEEKEGIPPQQQRLIYSGKQMNDEKTAAHYKILGGSVLHLVLALRGG"},
		{Name: "P53_HUMAN", Residues: "SVTCTYSPALNKMFCQLAKTCPVQLWVDSTPPPGTRVRAMAIYKQSQHMTEVVRRCPHHE"},
		{Name: "RECA_ECOLI", Residues: "MAIDENKQKALAAALGQIEKQFGKGSIMRLGEDRSMDVETISTGSLSLDIALGAGGLPMG"},
		{Name: "INS_HUMAN", Residues: "MALWMRLLPLLALLALWGPDPAAAFVNQHLCGSHLVEALYLVCGERGFFYTPKTRREAEDLQVGQVELGGGPGAGSLQPLALEGSLQKRGIVEQCCTSICSLYQLENYCN"},
		{Name: "MYG_HUMAN", Residues: "MGLSDGEWQQVLNVWGKVEADIAGHGQEVLIRLFTGHPETLEKFDKFKHLKTEAEMKASEDLKKHGVTVLTALGAILKKKGHHEAELKPLAQSHATKHKIPIKYLEFISEAIIHVLHSRHPGDFGADAQGAMNKALELFRKDIAAKYKELGYQG"},
	}, blast.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	queries := []string{
		"MQIFVKTLTGKTITLEVEPSDTIENVKAKIQDKEGIPPDQQRLIFAGK",
		"VLNVWGKVEADIAGHGQEVLIRLFTGHPETLEKFDKFKHL",
	}

	const n = 3
	shards, err := db.Shards(n)
	if err != nil {
		log.Fatal(err)
	}
	parts := make([]*blast.ShardResult, n)
	var wg sync.WaitGroup
	for s, shard := range shards {
		_, globalSeqs := shard.GlobalSearchSpace()
		fmt.Printf("shard %d: %d of %d sequences\n", s, shard.NumSequences(), globalSeqs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			part, err := shard.SearchShardBatchCtx(context.Background(), queries, s, n)
			if err != nil {
				log.Fatal(err)
			}
			parts[s] = part
		}()
	}
	wg.Wait()
	merged, err := blast.MergeShards(queries, parts)
	if err != nil {
		log.Fatal(err)
	}
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		log.Fatal(err)
	}

	identical := true
	for qi := range queries {
		got, want := merged.Results[qi], mono.Results[qi]
		fmt.Print(got.Tabular(fmt.Sprintf("q%d", qi)))
		identical = identical && slices.Equal(got.Hits, want.Hits)
	}
	fmt.Println("merged == monolithic:", identical)
	// Output:
	// shard 0: 2 of 6 sequences
	// shard 1: 2 of 6 sequences
	// shard 2: 2 of 6 sequences
	// q0	UBIQ_HUMAN	100.00	48	0	0	1	48	1	48	1.5e-27	97.1
	// q0	NEDD8_HUMAN	58.33	48	20	0	1	48	1	48	2.1e-18	66.6
	// q1	MYG_HUMAN	100.00	40	0	0	1	40	11	50	1.6e-24	87.0
	// merged == monolithic: true
}
