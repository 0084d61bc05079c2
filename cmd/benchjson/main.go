// Command benchjson converts `go test -bench -benchmem` text output into
// a stable, machine-readable JSON document, so benchmark history can be
// diffed and scraped without regexing the prose format. It reads the
// benchmark text from stdin and writes one JSON object keyed by
// benchmark name (Go's JSON encoder sorts map keys, so the output is
// byte-stable for a given input) plus host provenance: GOOS/GOARCH, the
// toolchain version, and the processor count the run had available.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem . | benchjson -out BENCH_10.json
//	benchjson compare -old BENCH_9.json -new BENCH_10.json -threshold 1.5
//
// The compare mode is the CI perf-regression gate: it reports the
// new/old ns/op and allocs/op ratios for every benchmark present in both
// documents and fails when any ratio exceeds the threshold. A benchmark
// is present in both when its name matches exactly, or when it matches
// with the -P GOMAXPROCS suffix removed and that base name is unique in
// each document (see compareDocs). Benchmarks present in only one
// document are listed but never gate (adding or retiring a benchmark is
// not a regression).
//
// Exit codes: 0 clean, 1 regression past threshold (compare mode),
// 2 failed (no benchmark lines on stdin, unreadable input, I/O error).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"svtiming/internal/fault"
)

// result is one benchmark row. The canonical -benchmem triple gets typed
// fields; anything else the row reports (custom b.ReportMetric units)
// lands in Extra keyed by unit so the document never silently drops a
// column.
type result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// document is the full output schema.
type document struct {
	GoOS       string            `json:"goos"`
	GoArch     string            `json:"goarch"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	Benchmarks map[string]result `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	outPath := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		log.Print(err)
		return fault.ExitFailed
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Print(err)
		return fault.ExitFailed
	}
	buf = append(buf, '\n')

	if *outPath == "" {
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Print(err)
			return fault.ExitFailed
		}
		return fault.ExitClean
	}
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		log.Print(err)
		return fault.ExitFailed
	}
	return fault.ExitClean
}

// compareRow is one benchmark's old-vs-new comparison. Name is the
// candidate's benchmark name and OldName the baseline's; they differ only
// when the pair was matched across the -P suffix (see compareDocs).
// Ratios are new/old, so 1.0 is unchanged and 2.0 is twice as slow (or
// twice the allocations); AllocsRatio is 0 when the old run recorded no
// allocations for the row (nothing to regress against).
type compareRow struct {
	Name, OldName string
	OldNs, NewNs  float64
	NsRatio       float64
	AllocsRatio   float64
	Regressed     bool
}

// baseName strips the -P GOMAXPROCS suffix go test appends to a
// benchmark name when P > 1 ("BenchmarkX-8" → "BenchmarkX"); a name
// without one is returned unchanged.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// uniqueBases maps every base name that exactly one benchmark in the
// document carries to that benchmark's full name.
func uniqueBases(doc *document) map[string]string {
	count := make(map[string]int, len(doc.Benchmarks))
	for name := range doc.Benchmarks {
		count[baseName(name)]++
	}
	out := make(map[string]string, len(count))
	for name := range doc.Benchmarks {
		if base := baseName(name); count[base] == 1 {
			out[base] = name
		}
	}
	return out
}

// compareDocs builds comparison rows, sorted by candidate name, for every
// benchmark present in both documents, marking rows whose ns/op or
// allocs/op ratio exceeds threshold. Names match exactly first. A
// candidate benchmark absent from the baseline under its exact name falls
// back to its base name (the -P suffix removed), provided that base name
// is unique in each document: a baseline recorded at GOMAXPROCS 1
// (BenchmarkX) then still gates a candidate from a multi-core host
// (BenchmarkX-2), while -cpu sweeps, which put several variants of one
// base name in a document, stay matched exactly. Benchmarks present in
// only one document never gate.
func compareDocs(oldDoc, newDoc *document, threshold float64) []compareRow {
	oldBases, newBases := uniqueBases(oldDoc), uniqueBases(newDoc)
	names := make([]string, 0, len(newDoc.Benchmarks))
	for name := range newDoc.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]compareRow, 0, len(names))
	for _, name := range names {
		oldName := name
		if _, ok := oldDoc.Benchmarks[name]; !ok {
			base := baseName(name)
			match, unique := oldBases[base]
			if !unique || newBases[base] != name {
				continue
			}
			oldName = match
		}
		o, n := oldDoc.Benchmarks[oldName], newDoc.Benchmarks[name]
		row := compareRow{Name: name, OldName: oldName, OldNs: o.NsPerOp, NewNs: n.NsPerOp}
		if o.NsPerOp > 0 {
			row.NsRatio = n.NsPerOp / o.NsPerOp
		}
		if o.AllocsPerOp > 0 {
			row.AllocsRatio = n.AllocsPerOp / o.AllocsPerOp
		}
		row.Regressed = row.NsRatio > threshold || row.AllocsRatio > threshold
		rows = append(rows, row)
	}
	return rows
}

func loadDoc(path string) (*document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in document", path)
	}
	return &doc, nil
}

// runCompare is the `benchjson compare` entry point: the perf-regression
// gate over two benchmark documents.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	oldPath := fs.String("old", "", "baseline benchmark JSON (required)")
	newPath := fs.String("new", "", "candidate benchmark JSON (required)")
	threshold := fs.Float64("threshold", 1.5,
		"fail when any common benchmark's new/old ns/op or allocs/op ratio exceeds this")
	if err := fs.Parse(args); err != nil {
		return fault.ExitFailed
	}
	if *oldPath == "" || *newPath == "" {
		log.Print("compare: -old and -new are both required")
		fs.Usage()
		return fault.ExitFailed
	}
	oldDoc, err := loadDoc(*oldPath)
	if err != nil {
		log.Print(err)
		return fault.ExitFailed
	}
	newDoc, err := loadDoc(*newPath)
	if err != nil {
		log.Print(err)
		return fault.ExitFailed
	}
	// The processor counts frame the ratios: GOMAXPROCS follows nproc,
	// and with it the -P suffix on every candidate name.
	fmt.Printf("baseline %s (nproc %d) vs candidate %s (nproc %d)\n",
		*oldPath, oldDoc.NProc, *newPath, newDoc.NProc)
	rows := compareDocs(oldDoc, newDoc, *threshold)
	if len(rows) == 0 {
		log.Printf("compare: no common benchmarks between %s and %s", *oldPath, *newPath)
		return fault.ExitFailed
	}
	regressed := 0
	matchedOld := make(map[string]bool, len(rows))
	matchedNew := make(map[string]bool, len(rows))
	for _, row := range rows {
		matchedOld[row.OldName], matchedNew[row.Name] = true, true
		mark := "ok"
		if row.Regressed {
			mark = "REGRESSED"
			regressed++
		}
		label := row.Name
		if row.OldName != row.Name {
			label += " (baseline " + row.OldName + ")"
		}
		fmt.Printf("%-40s ns/op %12.0f -> %12.0f (%.2fx)  allocs %.2fx  %s\n",
			label, row.OldNs, row.NewNs, row.NsRatio, row.AllocsRatio, mark)
	}
	// Non-gating context rows, sorted so the report is byte-stable.
	var only []string
	for name := range oldDoc.Benchmarks {
		if !matchedOld[name] {
			only = append(only, name+" retired (baseline only)")
		}
	}
	for name := range newDoc.Benchmarks {
		if !matchedNew[name] {
			only = append(only, name+" new (candidate only)")
		}
	}
	sort.Strings(only)
	for _, line := range only {
		fmt.Println(line)
	}
	if regressed > 0 {
		log.Printf("compare: %d of %d benchmarks regressed past %.2fx", regressed, len(rows), *threshold)
		return fault.ExitDegraded
	}
	return fault.ExitClean
}

// parse scans benchmark text for Benchmark* rows and builds the document.
// Rows it cannot parse are skipped (the go test stream interleaves build
// chatter, printed tables and the trailing ok line); zero parsed rows is
// an error so an empty pipe fails loudly instead of writing "{}".
func parse(r io.Reader) (*document, error) {
	doc := &document{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		Benchmarks: make(map[string]result),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		name, res, ok := parseLine(sc.Text())
		if ok {
			doc.Benchmarks[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on input")
	}
	return doc, nil
}

// parseLine parses one `BenchmarkName-P  N  v unit  v unit ...` row.
// The -P GOMAXPROCS suffix is folded into the name as go test prints it,
// keeping distinct -cpu runs distinct in the document.
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	res := result{Iterations: iters}
	seen := false
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seen = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[unit] = v
		}
	}
	if !seen {
		return "", result{}, false
	}
	return fields[0], res, true
}
