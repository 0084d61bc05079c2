package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svtiming/internal/fault"
)

const sample = `goos: linux
goarch: amd64
pkg: svtiming
== Table 2 ==
c432   rows of printed output that must be ignored
BenchmarkImageAbbe 	      50	   2480015 ns/op	    8198 B/op	       1 allocs/op
BenchmarkImageSOCS 	      50	    509586 ns/op	       0 B/op	       0 allocs/op
BenchmarkImageSOCS-8 	      50	    400000 ns/op	       0 B/op	       0 allocs/op
BenchmarkTable2Timing 	       2	 512345678 ns/op	        61.98 %reduction	 1234 B/op	       9 allocs/op
BenchmarkNoBenchmem 	     100	      5000 ns/op
Benchmark garbage line without numbers
ok  	svtiming	12.3s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}

	abbe := doc.Benchmarks["BenchmarkImageAbbe"]
	if abbe.NsPerOp != 2480015 || abbe.BytesPerOp != 8198 || abbe.AllocsPerOp != 1 || abbe.Iterations != 50 {
		t.Fatalf("Abbe row parsed wrong: %+v", abbe)
	}
	socs := doc.Benchmarks["BenchmarkImageSOCS"]
	if socs.NsPerOp != 509586 || socs.AllocsPerOp != 0 {
		t.Fatalf("SOCS row parsed wrong: %+v", socs)
	}
	// The -P suffix stays in the name: distinct -cpu runs stay distinct.
	if _, ok := doc.Benchmarks["BenchmarkImageSOCS-8"]; !ok {
		t.Fatal("suffixed benchmark name was folded away")
	}
	// Custom b.ReportMetric units land in Extra, not on the floor.
	t2 := doc.Benchmarks["BenchmarkTable2Timing"]
	if t2.Extra["%reduction"] != 61.98 {
		t.Fatalf("custom metric lost: %+v", t2)
	}
	if t2.AllocsPerOp != 9 {
		t.Fatalf("allocs after a custom metric lost: %+v", t2)
	}
	// A row without -benchmem still parses (ns/op only).
	nb := doc.Benchmarks["BenchmarkNoBenchmem"]
	if nb.NsPerOp != 5000 || nb.BytesPerOp != 0 {
		t.Fatalf("benchmem-less row parsed wrong: %+v", nb)
	}
	if doc.NProc <= 0 || doc.GoVersion == "" {
		t.Fatalf("provenance missing: %+v", doc)
	}
}

func TestParseEmptyInputFails(t *testing.T) {
	if _, err := parse(strings.NewReader("ok  \tsvtiming\t1.0s\n")); err == nil {
		t.Fatal("want error for input with no benchmark rows")
	}
}

func docOf(rows map[string]result) *document {
	return &document{Benchmarks: rows}
}

func TestCompareDocs(t *testing.T) {
	oldDoc := docOf(map[string]result{
		"BenchmarkA-8":       {NsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkB-8":       {NsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkC-8":       {NsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkRetired-8": {NsPerOp: 5},
	})
	newDoc := docOf(map[string]result{
		"BenchmarkA-8":   {NsPerOp: 1100, AllocsPerOp: 100}, // 1.10x: fine
		"BenchmarkB-8":   {NsPerOp: 2000, AllocsPerOp: 100}, // 2.00x ns/op: regressed
		"BenchmarkC-8":   {NsPerOp: 900, AllocsPerOp: 180},  // 1.80x allocs/op: regressed
		"BenchmarkNew-8": {NsPerOp: 7},
	})
	rows := compareDocs(oldDoc, newDoc, 1.5)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (only common benchmarks gate)", len(rows))
	}
	// compareDocs sorts by name: A, B, C.
	if rows[0].Name != "BenchmarkA-8" || rows[0].Regressed {
		t.Errorf("A: %+v", rows[0])
	}
	if !rows[1].Regressed || rows[1].NsRatio != 2.0 {
		t.Errorf("B should regress on ns/op: %+v", rows[1])
	}
	if !rows[2].Regressed || rows[2].AllocsRatio != 1.8 {
		t.Errorf("C should regress on allocs/op: %+v", rows[2])
	}
}

// Improvements and zero-alloc baselines must never trip the gate: an
// allocs ratio against a zero baseline is undefined, not infinite.
func TestCompareDocsZeroAllocBaseline(t *testing.T) {
	oldDoc := docOf(map[string]result{"BenchmarkZ-8": {NsPerOp: 1000, AllocsPerOp: 0}})
	newDoc := docOf(map[string]result{"BenchmarkZ-8": {NsPerOp: 400, AllocsPerOp: 3}})
	rows := compareDocs(oldDoc, newDoc, 1.5)
	if len(rows) != 1 || rows[0].Regressed {
		t.Fatalf("zero-alloc baseline gated: %+v", rows)
	}
}

// End-to-end: the parse path feeds the compare path, and a document
// self-compares clean at any threshold above 1.0.
func TestParseThenCompare(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	rows := compareDocs(doc, doc, 1.0+1e-9)
	if len(rows) != len(doc.Benchmarks) {
		t.Fatalf("self-compare covered %d of %d benchmarks", len(rows), len(doc.Benchmarks))
	}
	for _, row := range rows {
		if row.Regressed {
			t.Fatalf("self-compare regressed: %+v", row)
		}
	}
}

// A baseline recorded at GOMAXPROCS 1 carries bare names; a candidate
// from a multi-core host carries the -P suffix. The pair must still gate.
func TestCompareDocsAcrossProcSuffix(t *testing.T) {
	oldDoc := docOf(map[string]result{
		"BenchmarkColdRebuild": {NsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkEditApply":   {NsPerOp: 100, AllocsPerOp: 10},
	})
	oldDoc.NProc = 1
	newDoc := docOf(map[string]result{
		"BenchmarkColdRebuild-2": {NsPerOp: 1200, AllocsPerOp: 100},
		"BenchmarkEditApply-2":   {NsPerOp: 90, AllocsPerOp: 10},
	})
	newDoc.NProc = 2
	rows := compareDocs(oldDoc, newDoc, 2.5)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (suffix-stripped names must match): %+v", len(rows), rows)
	}
	want := []compareRow{
		{Name: "BenchmarkColdRebuild-2", OldName: "BenchmarkColdRebuild", OldNs: 1000, NewNs: 1200, NsRatio: 1.2, AllocsRatio: 1},
		{Name: "BenchmarkEditApply-2", OldName: "BenchmarkEditApply", OldNs: 100, NewNs: 90, NsRatio: 0.9, AllocsRatio: 1},
	}
	for i, row := range rows {
		if row != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
	}
}

func writeDoc(t *testing.T, dir, name string, doc *document) string {
	t.Helper()
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The suffix fallback must not blunt the gate: a regression between a
// bare baseline name and a suffixed candidate still exits 1, and the
// clean pair still exits 0.
func TestRunCompareAcrossProcSuffix(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", &document{NProc: 1, Benchmarks: map[string]result{
		"BenchmarkColdRebuild": {NsPerOp: 1000, AllocsPerOp: 100},
	}})
	cleanPath := writeDoc(t, dir, "clean.json", &document{NProc: 2, Benchmarks: map[string]result{
		"BenchmarkColdRebuild-2": {NsPerOp: 1100, AllocsPerOp: 100},
	}})
	slowPath := writeDoc(t, dir, "slow.json", &document{NProc: 2, Benchmarks: map[string]result{
		"BenchmarkColdRebuild-2": {NsPerOp: 3000, AllocsPerOp: 100},
	}})
	if code := runCompare([]string{"-old", oldPath, "-new", cleanPath, "-threshold", "2.5"}); code != fault.ExitClean {
		t.Errorf("clean pair across suffixes: exit %d, want %d", code, fault.ExitClean)
	}
	if code := runCompare([]string{"-old", oldPath, "-new", slowPath, "-threshold", "2.5"}); code != fault.ExitDegraded {
		t.Errorf("3x regression across suffixes: exit %d, want %d", code, fault.ExitDegraded)
	}
}

// A -cpu sweep puts several variants of one base name in a document;
// each variant must match its exact counterpart only, and a variant with
// no exact counterpart must not fall back onto a sibling.
func TestCompareDocsCPUVariantsMatchExactly(t *testing.T) {
	oldDoc := docOf(map[string]result{
		"BenchmarkX":   {NsPerOp: 1000},
		"BenchmarkX-2": {NsPerOp: 600},
		"BenchmarkX-4": {NsPerOp: 400},
		"BenchmarkY-8": {NsPerOp: 50},
	})
	newDoc := docOf(map[string]result{
		"BenchmarkX":   {NsPerOp: 1000},
		"BenchmarkX-2": {NsPerOp: 600},
		"BenchmarkX-8": {NsPerOp: 300},
		"BenchmarkY-2": {NsPerOp: 80},
		"BenchmarkY-4": {NsPerOp: 70},
	})
	rows := compareDocs(oldDoc, newDoc, 1.5)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (only the exact -cpu variants match): %+v", len(rows), rows)
	}
	for i, name := range []string{"BenchmarkX", "BenchmarkX-2"} {
		if rows[i].Name != name || rows[i].OldName != name || rows[i].NsRatio != 1 {
			t.Errorf("row %d = %+v, want an exact %s match", i, rows[i], name)
		}
	}
}
