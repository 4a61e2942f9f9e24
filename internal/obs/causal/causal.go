// Package causal reconstructs per-job span trees from an obs event stream
// and decomposes each job's elapsed virtual time across the tree's legs.
//
// Spans recorded through obs.BeginTrace/BeginChild carry a trace ID and a
// parent span ID, so a traced job's records form a tree rooted at the span
// minted when the job was submitted (an RMF job, an MPI rank, a GRAM
// request). Build turns a flat event stream back into those trees; Decompose
// walks one tree and attributes every instant of the root's duration to the
// deepest span active at that instant, generalizing the Table 2 single-path
// telescoping (internal/bench/decomp.go) to arbitrary jobs: the per-leg
// times sum bit-exactly to the root's elapsed virtual time by construction.
//
// Everything here is a pure function of the event slice — no clocks, no
// maps iterated without sorting — so output is deterministic for a
// deterministic trace.
package causal

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/obs"
)

// Span is one node of a reconstructed trace tree.
type Span struct {
	ID     obs.SpanID
	Trace  uint64
	Parent uint64 // parent span ID; 0 for a root
	Cat    string
	Name   string
	Track  string
	Start  time.Duration
	End    time.Duration
	// Complete is false when the span's End never arrived (the process was
	// killed mid-span by a fault plan or the run's horizon). Incomplete
	// spans are kept in the tree but excluded from time attribution.
	Complete bool
	Fields   []obs.Field
	Children []*Span
	depth    int
}

// Label renders the span's leg identity ("cat/name").
func (s *Span) Label() string { return s.Cat + "/" + s.Name }

// Duration is End-Start for complete spans, 0 otherwise.
func (s *Span) Duration() time.Duration {
	if !s.Complete {
		return 0
	}
	return s.End - s.Start
}

// Mark is an instant event tied into a trace (a requeue or speculation
// marker inside a job's tree).
type Mark struct {
	At     time.Duration
	Cat    string
	Name   string
	Track  string
	Parent uint64
}

// Trace is one reconstructed tree (or forest fragment, if a child's parent
// span never made it into the stream).
type Trace struct {
	ID    uint64
	Roots []*Span
	Marks []Mark
	// Spans counts every span in the trace; Incomplete counts the ones
	// whose End never arrived.
	Spans      int
	Incomplete int
}

// Forest is every trace reconstructed from an event stream, ordered by
// trace ID (mint order).
type Forest struct {
	Traces []*Trace
}

// Trace returns the trace with the given ID, or nil.
func (f *Forest) Trace(id uint64) *Trace {
	for _, t := range f.Traces {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Build reconstructs every trace tree in events. Untraced events (Trace ==
// 0) are ignored; an End without a matching Begin is ignored; a Begin whose
// parent span is missing from the stream becomes an extra root of its
// trace.
func Build(events []obs.Event) *Forest {
	spans := make(map[uint64]*Span)
	traces := make(map[uint64]*Trace)
	var order []uint64
	traceOf := func(id uint64) *Trace {
		t, ok := traces[id]
		if !ok {
			t = &Trace{ID: id}
			traces[id] = t
			order = append(order, id)
		}
		return t
	}
	for i := range events {
		e := &events[i]
		switch e.Ph {
		case obs.PhaseBegin:
			if e.Trace == 0 {
				continue
			}
			s := &Span{
				ID: obs.SpanID(e.ID), Trace: e.Trace, Parent: e.Parent,
				Cat: e.Cat, Name: e.Name, Track: e.Track,
				Start: e.At, Fields: e.Fields,
			}
			spans[e.ID] = s
			t := traceOf(e.Trace)
			t.Spans++
			if p, ok := spans[e.Parent]; ok && e.Parent != 0 && p.Trace == e.Trace {
				s.depth = p.depth + 1
				p.Children = append(p.Children, s)
			} else {
				t.Roots = append(t.Roots, s)
			}
		case obs.PhaseEnd:
			if s, ok := spans[e.ID]; ok && !s.Complete {
				s.End = e.At
				s.Complete = true
			}
		case obs.PhaseInstant:
			if e.Trace == 0 {
				continue
			}
			t := traceOf(e.Trace)
			t.Marks = append(t.Marks, Mark{At: e.At, Cat: e.Cat, Name: e.Name, Track: e.Track, Parent: e.Parent})
		}
	}
	// Every span in the map was begun under a trace traceOf created.
	for _, s := range spans {
		if !s.Complete {
			traces[s.Trace].Incomplete++
		}
	}
	f := &Forest{}
	for _, id := range order {
		f.Traces = append(f.Traces, traces[id])
	}
	return f
}

// Row is one leg of a decomposition: the span and the self time attributed
// to it (the portion of the root's duration when it was the deepest active
// span).
type Row struct {
	Span *Span
	Self time.Duration
}

// Decomposition attributes every instant of a root span's duration to the
// deepest span active at that instant. Rows are ordered by first activation;
// their Self times sum bit-exactly to Total = root.End - root.Start.
type Decomposition struct {
	Root  *Span
	Total time.Duration
	Rows  []Row
}

// Decompose computes the critical-path decomposition of one complete root
// span. Incomplete descendants are skipped (their time falls to the
// enclosing span), and descendants are clipped to the root's window. It
// returns an error if root is incomplete.
func Decompose(root *Span) (*Decomposition, error) {
	if !root.Complete {
		return nil, fmt.Errorf("causal: root span %d (%s) is incomplete", root.ID, root.Label())
	}
	// Gather every complete descendant, clipped to the root's window.
	var all []*Span
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.Complete {
			all = append(all, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	// Boundary sweep: each segment between consecutive boundaries belongs
	// entirely to one deepest active span.
	bounds := make([]time.Duration, 0, 2*len(all))
	clip := func(t time.Duration) time.Duration {
		if t < root.Start {
			return root.Start
		}
		if t > root.End {
			return root.End
		}
		return t
	}
	for _, s := range all {
		bounds = append(bounds, clip(s.Start), clip(s.End))
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Dedup.
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq
	d := &Decomposition{Root: root, Total: root.End - root.Start}
	self := make(map[*Span]time.Duration)
	var first []*Span // activation order
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		var best *Span
		for _, s := range all {
			if clip(s.Start) <= lo && clip(s.End) >= hi {
				if best == nil || deeper(s, best) {
					best = s
				}
			}
		}
		if best == nil {
			best = root // cannot happen (root covers its window) but stay total
		}
		if _, seen := self[best]; !seen {
			first = append(first, best)
		}
		self[best] += hi - lo
	}
	for _, s := range first {
		d.Rows = append(d.Rows, Row{Span: s, Self: self[s]})
	}
	// The sweep partitions [root.Start, root.End] exactly, so the rows
	// telescope to Total by construction; verify anyway so a future edit
	// cannot silently break the contract.
	var sum time.Duration
	for _, r := range d.Rows {
		sum += r.Self
	}
	if sum != d.Total {
		return nil, fmt.Errorf("causal: decomposition does not telescope: legs sum to %v, root spans %v", sum, d.Total)
	}
	return d, nil
}

// deeper reports whether a should win attribution over b: greater depth,
// then later start, then higher span ID (all deterministic).
func deeper(a, b *Span) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.ID > b.ID
}

// LegTotal is the whole-run aggregate of one leg (cat/name) across every
// decomposed job.
type LegTotal struct {
	Leg   string
	Total time.Duration
	Count int // spans that accrued self time
}

// Summary is the whole-run critical-path view: every complete root
// decomposed, slowest first, plus per-leg aggregates.
type Summary struct {
	Jobs []*Decomposition // sorted by Total desc, then trace ID
	Legs []LegTotal       // sorted by Total desc, then leg name
	// Skipped counts roots that could not be decomposed (incomplete).
	Skipped int
}

// Summarize decomposes every complete root in the forest.
func Summarize(f *Forest) *Summary {
	sum := &Summary{}
	legs := make(map[string]*LegTotal)
	for _, t := range f.Traces {
		for _, root := range t.Roots {
			d, err := Decompose(root)
			if err != nil {
				sum.Skipped++
				continue
			}
			sum.Jobs = append(sum.Jobs, d)
			for _, r := range d.Rows {
				l, ok := legs[r.Span.Label()]
				if !ok {
					l = &LegTotal{Leg: r.Span.Label()}
					legs[r.Span.Label()] = l
				}
				l.Total += r.Self
				l.Count++
			}
		}
	}
	sort.SliceStable(sum.Jobs, func(i, j int) bool {
		if sum.Jobs[i].Total != sum.Jobs[j].Total {
			return sum.Jobs[i].Total > sum.Jobs[j].Total
		}
		return sum.Jobs[i].Root.Trace < sum.Jobs[j].Root.Trace
	})
	names := make([]string, 0, len(legs))
	for n := range legs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sum.Legs = append(sum.Legs, *legs[n])
	}
	sort.SliceStable(sum.Legs, func(i, j int) bool {
		if sum.Legs[i].Total != sum.Legs[j].Total {
			return sum.Legs[i].Total > sum.Legs[j].Total
		}
		return sum.Legs[i].Leg < sum.Legs[j].Leg
	})
	return sum
}

// Percentile returns the p-th percentile (nearest-rank, p in (0,100]) of
// durations — a leg's, as obs.(*Observer).Durations folds them. It returns 0
// for an empty slice.
func Percentile(durations []time.Duration, p float64) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// fmtMS renders a duration as fixed-point milliseconds, the format the
// decomposition tables share with internal/bench.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.6fms", float64(d)/1e6)
}

// FormatDecomposition renders one job's per-leg table: indented span tree
// rows with self time, telescoping to the root's total.
func FormatDecomposition(d *Decomposition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d  root %s [%s]  total %s\n",
		d.Root.Trace, d.Root.Label(), d.Root.Track, fmtMS(d.Total))
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "  %-13s %*s%s [%s]\n", fmtMS(r.Self),
			2*r.Span.depth, "", r.Span.Label(), r.Span.Track)
	}
	fmt.Fprintf(&b, "  %-13s = total\n", fmtMS(d.Total))
	return b.String()
}

// FormatSummary renders the whole-run view: the top-K slowest jobs and the
// per-leg aggregate. k <= 0 means every job.
func FormatSummary(s *Summary, k int) string {
	var b strings.Builder
	n := len(s.Jobs)
	if k > 0 && k < n {
		n = k
	}
	fmt.Fprintf(&b, "%d traced jobs (%d skipped incomplete); slowest %d:\n", len(s.Jobs), s.Skipped, n)
	for _, d := range s.Jobs[:n] {
		crit := ""
		if len(d.Rows) > 0 {
			top := d.Rows[0]
			for _, r := range d.Rows[1:] {
				if r.Self > top.Self {
					top = r
				}
			}
			crit = fmt.Sprintf("  critical %s %s", top.Span.Label(), fmtMS(top.Self))
		}
		fmt.Fprintf(&b, "  trace %-4d %-12s [%s] total %s%s\n",
			d.Root.Trace, d.Root.Label(), d.Root.Track, fmtMS(d.Total), crit)
	}
	fmt.Fprintf(&b, "per-leg critical-path time:\n")
	for _, l := range s.Legs {
		fmt.Fprintf(&b, "  %-24s %s  (%d spans)\n", l.Leg, fmtMS(l.Total), l.Count)
	}
	return b.String()
}
