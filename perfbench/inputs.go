package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// Join parameters shared by every workload: the MED-like preset at θ 0.8
// with the AU-Filter DP signatures.
const (
	theta  = 0.8
	filter = "dp"
	topK   = 10
)

// dataset is one MED-like input set written by the datagen command.
type dataset struct {
	dir         string
	left, right []string
}

func (d dataset) synonyms() string { return filepath.Join(d.dir, "synonyms.tsv") }
func (d dataset) taxonomy() string { return filepath.Join(d.dir, "taxonomy.tsv") }

// genInputs runs the datagen command for the MED-like preset at the given
// seed and reads back both collections.
func genInputs(r *runner, size int, seed int64) (dataset, error) {
	d := dataset{dir: filepath.Join(r.dir, "data")}
	if _, err := runCLI(r.ctx, r.exe("datagen"), nil, "-preset", "med", "-size", strconv.Itoa(size),
		"-seed", strconv.FormatInt(seed, 10), "-out", d.dir); err != nil {
		return d, err
	}
	var err error
	if d.left, err = cmdutil.ReadLines(filepath.Join(d.dir, "left.txt")); err != nil {
		return d, err
	}
	if d.right, err = cmdutil.ReadLines(filepath.Join(d.dir, "right.txt")); err != nil {
		return d, err
	}
	if len(d.left) < size || len(d.right) < size {
		return d, fmt.Errorf("datagen wrote %d+%d records, want %d each", len(d.left), len(d.right), size)
	}
	return d, nil
}

// publicJoiner is the library Joiner configured exactly as the commands
// configure theirs from the same -synonyms and -taxonomy files.
func (d dataset) publicJoiner() (*aujoin.Joiner, error) {
	syn, err := os.Open(d.synonyms())
	if err != nil {
		return nil, err
	}
	defer syn.Close()
	tax, err := os.Open(d.taxonomy())
	if err != nil {
		return nil, err
	}
	defer tax.Close()
	return aujoin.NewStrict(aujoin.WithSynonymsFrom(syn), aujoin.WithTaxonomyFrom(tax))
}

// internalJoiner builds the internal join engine over the same knowledge
// files, for the per-layer timings and the brute-force oracle.
func (d dataset) internalJoiner() (*join.Joiner, error) {
	syn, err := os.Open(d.synonyms())
	if err != nil {
		return nil, err
	}
	defer syn.Close()
	rules, err := synonym.Read(syn)
	if err != nil {
		return nil, err
	}
	tf, err := os.Open(d.taxonomy())
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	tax, err := taxonomy.Read(tf)
	if err != nil {
		return nil, err
	}
	tax.Finalize()
	return join.NewJoiner(sim.NewContext(rules, tax)), nil
}

// writeLines writes one record per line.
func writeLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
