package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/workloads"
)

func TestMeasureOverheadProducesSaneRow(t *testing.T) {
	w := workloads.ByName("stamp-genome")
	row, err := MeasureOverhead(w, Config{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row.Native <= 0 || row.Light <= 0 || row.Leap <= 0 || row.Stride <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	if row.LightSpace <= 0 || row.LeapSpace <= 0 || row.StrideSpace <= 0 {
		t.Fatalf("non-positive space: %+v", row)
	}
	// Light records dependences/ranges; LEAP records every access: Light's
	// space must be well below LEAP's on this lock-guarded workload.
	if row.LightSpace*2 > row.LeapSpace {
		t.Errorf("light space %d not well below leap %d", row.LightSpace, row.LeapSpace)
	}
}

func TestAggregates(t *testing.T) {
	rows := []*OverheadRow{
		{Native: 100, Light: 150}, // 0.5
		{Native: 100, Light: 120}, // 0.2
		{Native: 100, Light: 200}, // 1.0
		{Native: 100, Light: 130}, // 0.3
	}
	agg := Aggregates(rows, (*OverheadRow).LightOverhead)
	if agg.Min != 0.2 || agg.Max != 1.0 {
		t.Errorf("min/max = %v/%v", agg.Min, agg.Max)
	}
	if agg.Average != 0.5 {
		t.Errorf("average = %v", agg.Average)
	}
	if agg.Median != 0.4 { // even count: mean of 0.3 and 0.5
		t.Errorf("median = %v", agg.Median)
	}
}

// TestMeasureOptimizationsShrinksSpace compares single recordings of each
// variant, so it runs at GOMAXPROCS 1: with real parallelism the recorded
// interleaving, and with it the log size, varies from run to run by more
// than the margin under test.
func TestMeasureOptimizationsShrinksSpace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := workloads.ByName("srv-cache4j")
	row, err := MeasureOptimizations(w, Config{Runs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !(row.SpaceO1 < row.SpaceBasic) {
		t.Errorf("O1 did not reduce space: basic=%d o1=%d", row.SpaceBasic, row.SpaceO1)
	}
	if row.SpaceBoth > row.SpaceO1+row.SpaceO1/10 {
		t.Errorf("O2 grew space: o1=%d both=%d", row.SpaceO1, row.SpaceBoth)
	}
}

func TestMeasureTable1AndH2OneBug(t *testing.T) {
	b := bugs.ByID("Tomcat-50885")
	row, err := MeasureTable1(b)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Reproduced {
		t.Fatalf("bug not reproduced: %+v", row)
	}
	if row.Solve <= 0 || row.SpaceLongs <= 0 {
		t.Errorf("degenerate measurements: %+v", row)
	}

	h2, err := MeasureH2(b)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Light {
		t.Error("Light column false")
	}
	if !h2.Clap {
		t.Error("Clap should reproduce Tomcat-50885")
	}
	if h2.Chimera {
		t.Error("Chimera should miss Tomcat-50885")
	}
}

func TestReportFormatters(t *testing.T) {
	rows := []*OverheadRow{{
		Name: "x", Native: time.Millisecond, Light: 2 * time.Millisecond,
		Leap: 3 * time.Millisecond, Stride: 4 * time.Millisecond,
		LightSpace: 10, LeapSpace: 100, StrideSpace: 50,
	}}
	f4 := FormatFig4(rows)
	for _, want := range []string{"Figure 4", "average", "1.00x", "2.00x", "3.00x"} {
		if !strings.Contains(f4, want) {
			t.Errorf("fig4 missing %q:\n%s", want, f4)
		}
	}
	f5 := FormatFig5(rows)
	for _, want := range []string{"Figure 5", "10.0%"} {
		if !strings.Contains(f5, want) {
			t.Errorf("fig5 missing %q:\n%s", want, f5)
		}
	}
	opt := []*OptRow{{Name: "x", Basic: 100, O1: 60, Both: 50, SpaceBasic: 1000, SpaceO1: 200, SpaceBoth: 150}}
	f7a := FormatFig7(opt, false)
	if !strings.Contains(f7a, "40.0%") || !strings.Contains(f7a, "10.0%") {
		t.Errorf("fig7a gains wrong:\n%s", f7a)
	}
	f7b := FormatFig7(opt, true)
	if !strings.Contains(f7b, "80.0%") {
		t.Errorf("fig7b gains wrong:\n%s", f7b)
	}
	t1 := FormatTable1([]*Table1Row{{Bug: "B", SpaceLongs: 5, Solve: time.Second, Replay: time.Second, Reproduced: true}})
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "true") {
		t.Errorf("table1:\n%s", t1)
	}
	h2 := FormatH2([]*H2Row{{Bug: "B", Light: true, Clap: false, Chimera: true, ClapReason: "HashMap"}})
	if !strings.Contains(h2, "light 1/1") || !strings.Contains(h2, "clap 0/1") {
		t.Errorf("h2:\n%s", h2)
	}
}

func TestCompileAll(t *testing.T) {
	progs, err := CompileAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 24 {
		t.Errorf("compiled %d workloads, want 24", len(progs))
	}
}
