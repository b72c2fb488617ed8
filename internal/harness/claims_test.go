package harness

import (
	"strconv"
	"testing"
)

// TestPaperClaims asserts the claims the paper draws from its figures, on
// the quantities that repeat exactly at a fixed seed: FPR and data blocks
// read, never time. Each row logs what it measured beside its assertion.
// Timing claims are recorded in docs/lsm.md with the scales they hold at.
func TestPaperClaims(t *testing.T) {
	for _, c := range []struct {
		fig, claim, scale string
		lsm               bool // builds LSM stores; skipped under -short
		check             func(t *testing.T)
	}{
		{
			fig:   "Fig9",
			claim: "uniform, 22 bits/key: for every range >= 10^3, bloomRF's FPR is below Rosetta's and SuRF's",
			scale: "50k keys over 25 tables, 2000 queries",
			lsm:   true,
			check: checkFig9,
		},
		{
			fig:   "RangeMix",
			claim: "range mix at 16 bits/key: data blocks read bloomRF < SuRF < Rosetta < Bloom",
			scale: "200k keys, 25 tables, 20k ops, max_range 1024, seed 42",
			lsm:   true,
			check: checkRangeMix,
		},
		{
			fig:   "Fig12F",
			claim: "the multi-attribute filter's FPR is above two separate filters' from 12 bits/key up (its speed is logged, not gated)",
			scale: "small",
			check: checkFig12F,
		},
	} {
		t.Run(c.fig, func(t *testing.T) {
			t.Parallel()
			if c.lsm && testing.Short() {
				t.Skip("lsm experiment")
			}
			t.Logf("claim: %s (scale: %s)", c.claim, c.scale)
			c.check(t)
		})
	}
}

func checkFig9(t *testing.T) {
	tables, err := Fig9(Scale{LSMKeys: 50_000, Queries: 2_000}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 { // (range + point) × 3 dists
		t.Fatalf("tables = %d, want 6", len(tables))
	}
	// tables[0] is the uniform range panel: rows of (range, filter, FPR,
	// exec), grouped by range in lsmPolicies order.
	fpr := map[uint64]map[string]float64{}
	for _, row := range tables[0].Rows {
		r := uint64(cell(t, row[0]))
		if fpr[r] == nil {
			fpr[r] = map[string]float64{}
		}
		fpr[r][row[1]] = cell(t, row[2])
	}
	for _, r := range fig9Ranges {
		if r < 1_000 {
			continue
		}
		f := fpr[r]
		t.Logf("range %d: FPR bloomRF %.4f, rosetta %.4f, surf %.4f", r, f["bloomRF"], f["rosetta"], f["surf"])
		if !(f["bloomRF"] < f["rosetta"] && f["bloomRF"] < f["surf"]) {
			t.Errorf("range %d: bloomRF's FPR %.4f is not below rosetta's %.4f and surf's %.4f",
				r, f["bloomRF"], f["rosetta"], f["surf"])
		}
	}
}

func checkRangeMix(t *testing.T) {
	tab, err := ycsbMix(Scale{LSMKeys: 200_000, Queries: 20_000}, t.TempDir(), "range")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]float64{}
	for _, row := range tab.Rows {
		blocks[row[0]] = cell(t, row[1])
		t.Logf("%-7s data blocks read %6.0f, empty-query FPR %s, IO saved vs Bloom %s", row[0], blocks[row[0]], row[2], row[3])
		if row[2] == "n/a" {
			t.Errorf("%s: the range mix produced no ground-truth-empty queries", row[0])
		}
	}
	if !(blocks["bloomrf"] < blocks["surf"] && blocks["surf"] < blocks["rosetta"] && blocks["rosetta"] < blocks["bloom"]) {
		t.Errorf("data blocks read bloomrf %.0f, surf %.0f, rosetta %.0f, bloom %.0f: want bloomrf < surf < rosetta < bloom",
			blocks["bloomrf"], blocks["surf"], blocks["rosetta"], blocks["bloom"])
	}
}

func checkFig12F(t *testing.T) {
	// Rows: bits/key, multi FPR, multi Mops/s, separate FPR, separate Mops/s.
	rows := Fig12F(ScaleSmall)[0].Rows
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		bpk, multi, sep := cell(t, row[0]), cell(t, row[1]), cell(t, row[3])
		t.Logf("%2.0f bits/key: FPR multi %.4f, separate %.4f; speedup %.1fx",
			bpk, multi, sep, cell(t, row[2])/cell(t, row[4]))
		if bpk >= 12 && !(multi > sep) {
			t.Errorf("%.0f bits/key: multi-attribute FPR %.4f is not above the separate filters' %.4f", bpk, multi, sep)
		}
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table cell %q: %v", s, err)
	}
	return v
}
