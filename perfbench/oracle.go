package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/aujoin/aujoin"
)

// pairKey names one join result by its left and right record positions.
type pairKey struct{ S, T int }

// pairDiff is how a join's output differs from the oracle's pairs.
type pairDiff struct {
	Oracle   int // pairs the oracle found
	Missing  int // oracle pairs the output lacks
	Extra    int // output pairs the oracle lacks
	WrongSim int // pairs in both whose similarities differ beyond the tolerance
}

// unsound reports whether the output contains anything that is not a true
// result: an extra pair or a wrong similarity.
func (d pairDiff) unsound() bool { return d.Extra > 0 || d.WrongSim > 0 }

// comparePairs compares a join's output with the oracle's pairs; tol
// absorbs the rounding of a printed similarity.
func comparePairs(got, want map[pairKey]float64, tol float64) pairDiff {
	d := pairDiff{Oracle: len(want)}
	for k, ws := range want {
		gs, ok := got[k]
		switch {
		case !ok:
			d.Missing++
		case math.Abs(gs-ws) > tol:
			d.WrongSim++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			d.Extra++
		}
	}
	return d
}

// parsePairs reads the aujoin command's "<left>\t<right>\t<similarity>"
// output lines.
func parsePairs(r io.Reader) (map[pairKey]float64, error) {
	out := map[pairKey]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("malformed output line %q", sc.Text())
		}
		s, err1 := strconv.Atoi(f[0])
		t, err2 := strconv.Atoi(f[1])
		sim, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("malformed output line %q", sc.Text())
		}
		out[pairKey{s, t}] = sim
	}
	return out, sc.Err()
}

// sameTopK reports whether two top-k answers are identical, record for
// record and bit for bit in similarity.
func sameTopK(got, want []aujoin.QueryMatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
