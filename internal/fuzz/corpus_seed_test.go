package fuzz

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "regenerate the seed corpus under testdata/corpus")

const seedCorpusDir = "testdata/corpus"

// seedCorpusSeeds picks one generator seed per hard-pattern family so the
// checked-in corpus spans the generator's range.
var seedCorpusSeeds = []uint64{1, 3, 5, 8, 11, 17, 23, 42}

// TestSeedCorpus re-runs every checked-in corpus case through the full
// oracle stack: the corpus doubles as the fuzzer's regression suite (it is
// what `make fuzz-smoke` replays via lightfuzz -regress). With -update it
// regenerates the files instead.
func TestSeedCorpus(t *testing.T) {
	if *updateCorpus {
		if err := os.RemoveAll(seedCorpusDir); err != nil {
			t.Fatal(err)
		}
		for _, seed := range seedCorpusSeeds {
			p := Generate(seed, nil)
			c := &Case{GenSeed: seed, SchedSeed: 0, Trace: p.Trace, Source: p.Source}
			if _, err := WriteCase(seedCorpusDir, c); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("regenerated %d corpus cases", len(seedCorpusSeeds))
	}
	cases, err := LoadCorpus(seedCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(seedCorpusSeeds) {
		t.Fatalf("seed corpus has %d cases, want %d (run with -update to regenerate)",
			len(cases), len(seedCorpusSeeds))
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case-%d-%d", c.GenSeed, c.SchedSeed), func(t *testing.T) {
			t.Parallel()
			// The stored trace must regenerate the stored source exactly —
			// a mismatch means the generator changed and the corpus is stale.
			p := Generate(c.GenSeed, c.Trace)
			if p.Source != c.Source {
				t.Fatal("stored source is stale for the current generator; rerun with -update")
			}
			// The full oracle stack includes the solve, its schedule
			// checker-validated.
			if _, err := Reproduce(c, nil); err != nil {
				t.Fatalf("oracle divergence on corpus case: %v", err)
			}
		})
	}
}
