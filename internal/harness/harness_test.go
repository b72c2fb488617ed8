package harness

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// tinyScale keeps smoke tests fast.
var tinyScale = Scale{
	Name: "tiny", Keys: 8_000, LSMKeys: 8_000, Queries: 400,
	GridKeys: []int{1_000, 4_000},
}

func TestBuildersProduceWorkingFilters(t *testing.T) {
	keys := SortKeys(workload.NewGenerator(workload.Uniform, 1).Keys(5000))
	builders := []Builder{
		BloomRFBuilder(), BasicBloomRFBuilder(), RosettaBuilder(0),
		SuRFBuilder(0), BloomBuilder(), LevelDBBloomBuilder(),
		CuckooBuilder(), PrefixBFBuilder(), FenceBuilder(),
	}
	for _, b := range builders {
		t.Run(b.Name, func(t *testing.T) {
			f, err := b.Build(keys, 16, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys[:500] {
				if !f.MayContain(k) {
					t.Fatalf("%s: point false negative", b.Name)
				}
				if !f.MayContainRange(k-min(k, 10), k+10) {
					t.Fatalf("%s: range false negative", b.Name)
				}
			}
			if f.SizeBits() == 0 {
				t.Errorf("%s: zero size", b.Name)
			}
		})
	}
}

func TestMeasureFPRBasics(t *testing.T) {
	keys := SortKeys(workload.NewGenerator(workload.Uniform, 2).Keys(5000))
	res, err := BuildAndMeasure(BloomRFBuilder(), keys, 18, 1024, workload.Uniform, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 || res.FPR < 0 || res.FPR > 1 {
		t.Fatalf("bad result %+v", res)
	}
	if res.BitsPerKey < 10 || res.BitsPerKey > 30 {
		t.Errorf("bits/key %.1f out of expected envelope", res.BitsPerKey)
	}
	// Point mode.
	resP, err := BuildAndMeasure(BloomBuilder(), keys, 12, 1, workload.Normal, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resP.FPR > 0.05 {
		t.Errorf("bloom point FPR %.4f too high", resP.FPR)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 0.5)
	tab.AddRow("xx", 123.0)
	tab.Notes = append(tab.Notes, "hello")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "bb", "0.5000", "123", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tab.RenderCSV(&csv)
	if !strings.Contains(csv.String(), "a,bb") {
		t.Error("csv header missing")
	}
}

func TestFig8Analytic(t *testing.T) {
	tables := Fig8()
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	if len(tables[0].Rows) == 0 || len(tables[1].Rows) == 0 {
		t.Fatal("empty analytic tables")
	}
	s6 := Sect6Table()
	if len(s6.Rows) != 4 {
		t.Fatalf("sect6 rows = %d", len(s6.Rows))
	}
}

func TestFig5Smoke(t *testing.T) {
	tables := Fig5(tinyScale)
	if len(tables) != 3 {
		t.Fatalf("want 3 tables, got %d", len(tables))
	}
	// 3 dists × k layers of overlay rows.
	if len(tables[0].Rows) < 9 {
		t.Errorf("overlay rows = %d", len(tables[0].Rows))
	}
	// Run/gap histograms have 6 rows (3 dists × 2 filters).
	if len(tables[1].Rows) != 6 || len(tables[2].Rows) != 6 {
		t.Errorf("run/gap rows = %d/%d, want 6/6", len(tables[1].Rows), len(tables[2].Rows))
	}
}

func TestFig12ASmoke(t *testing.T) {
	tables := Fig12A(Scale{Keys: 20_000, Queries: 100})
	if len(tables[0].Rows) != 10 {
		t.Fatalf("rows = %d, want 10 ratios", len(tables[0].Rows))
	}
}

func TestFig12DSmoke(t *testing.T) {
	tables := Fig12D(Scale{Keys: 5_000, Queries: 300})
	if len(tables[0].Rows) == 0 {
		t.Fatal("no float results")
	}
}

func TestFig12ESmoke(t *testing.T) {
	tables := Fig12E(Scale{Keys: 5_000, Queries: 300})
	if len(tables) != 3 {
		t.Fatalf("want 3 dist tables, got %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatal("empty shootout table")
		}
	}
}

func TestFig12GSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("lsm experiment")
	}
	tables, err := Fig12G(Scale{LSMKeys: 4_000, Queries: 200}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no breakdown rows")
	}
	// Rows come in lsmPolicies order, the same on every run: all of
	// bloomRF's, then Rosetta's, then SuRF's.
	var order []string
	for _, row := range tables[0].Rows {
		if n := len(order); n == 0 || order[n-1] != row[1] {
			order = append(order, row[1])
		}
	}
	if want := []string{"bloomRF", "rosetta", "surf"}; !slices.Equal(order, want) {
		t.Errorf("filter rows in order %v, want %v", order, want)
	}
	// Filter blocks are deserialized when the store opens its tables, so
	// the column reads the open-time cost, never 0 for a built store.
	deser := slices.Index(tables[0].Columns, "deser(s)")
	for _, row := range tables[0].Rows {
		if row[1] != "bloomRF" {
			continue
		}
		if v, err := strconv.ParseFloat(row[deser], 64); err != nil || v <= 0 {
			t.Errorf("bloomRF range %s: deser(s) = %q, want > 0", row[0], row[deser])
		}
	}
}

func TestZeroRunHistogram(t *testing.T) {
	// 0b...0110 pattern: alternating runs.
	words := []uint64{0b0110_0110}
	runs, gaps := zeroRunHistogram(words)
	if runs[0] == 0 {
		t.Error("expected short zero runs")
	}
	_ = gaps
	var sum float64
	for _, v := range runs {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("run histogram not normalized: %v", sum)
	}
}
