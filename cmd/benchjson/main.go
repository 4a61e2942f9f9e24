// Command benchjson converts `go test -bench` output on stdin into a JSON
// array of benchmark records on stdout, one object per benchmark line:
//
//	go test -bench 'KernelStep' -benchmem . | go run ./cmd/benchjson
//
// Recognized per-line metrics: iterations, ns/op, B/op, allocs/op, MB/s.
// Custom b.ReportMetric units (e.g. the fleet sweep's Mevents/sec) are
// collected under "metrics". Non-benchmark lines (goos/goarch/pkg/PASS/ok)
// are ignored. A benchmark that appears more than once (`-count N`) is
// reported once, as its median run by ns/op.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units verbatim.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	records := []Record{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		rec, ok := parseLine(sc.Text())
		if ok {
			records = append(records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(medians(records)); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// medians collapses repeated runs of one benchmark into the run with the
// median ns/op (the upper one of an even count), keeping first-seen order.
// It is a whole run's record, so its other columns belong together.
func medians(records []Record) []Record {
	runs := map[string][]Record{}
	out := []Record{}
	for _, r := range records {
		if _, seen := runs[r.Name]; !seen {
			out = append(out, r)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	for i := range out {
		rs := runs[out[i].Name]
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].NsPerOp < rs[b].NsPerOp })
		out[i] = rs[len(rs)/2]
	}
	return out
}

// parseLine parses one "BenchmarkName-8  1234  56.7 ns/op  8 B/op ..." line.
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the -GOMAXPROCS suffix when present.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: name, Iterations: iters}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			rec.NsPerOp = v
		case "MB/s":
			rec.MBPerSec = v
		case "B/op":
			rec.BytesPerOp = int64(v)
		case "allocs/op":
			rec.AllocsPerOp = int64(v)
		default:
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[fields[i+1]] = v
		}
	}
	return rec, true
}
