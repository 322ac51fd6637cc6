package blocks

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vr"
)

// isFinite reports a representable JSON number.
func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// CellResult is the merged view of one cell after every block journal has
// been folded in manifest order.
type CellResult struct {
	// Index is the cell's position in Manifest.Cells.
	Index int
	// Cell is the planned cell.
	Cell Cell
	// Records are the replication records, concatenated in manifest order
	// with ci_half_width rewritten from the block-local prefix to the
	// cell-global prefix — exactly the value a monolithic run journals.
	Records []Record
	// Totals holds total_useful per replication when present (estimate
	// kind), in replication order.
	Totals []float64
	// Events is the cell's total simulation event count.
	Events uint64

	// values is the manifest-ValueKey series in replication order.
	values []float64
}

// FlatValues returns the manifest-ValueKey series in replication order.
func (c CellResult) FlatValues() []float64 { return c.values }

// Replications counts the merged replication records.
func (c CellResult) Replications() int { return len(c.Records) }

// Reduce loads every block journal of the run directory and folds them, in
// manifest order, into per-cell results. If any block is incomplete —
// never run, torn by a crashed writer, or missing its trailer — Reduce
// reports them all in one error wrapping ErrIncomplete so the caller can
// print "resume first" guidance rather than a parse failure. Corrupt
// journals from a different manifest are hard errors.
//
// Because blocks partition each cell's replication range contiguously and
// Reduce visits them in manifest order, the merged record sequence — and
// every statistic folded from it — is independent of which workers ran
// which blocks and when. That is the other half of the determinism
// contract started by Plan's pre-assigned seeds.
func Reduce(dir string) (*Manifest, []CellResult, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	cells, err := ReduceManifest(dir, m)
	return m, cells, err
}

// ReduceManifest is Reduce against an already-loaded manifest.
func ReduceManifest(dir string, m *Manifest) ([]CellResult, error) {
	var incomplete []int
	recs := make([][]Record, len(m.Cells))
	events := make([]uint64, len(m.Cells))
	for _, b := range m.Blocks {
		r, tr, err := ReadBlockJournal(dir, m, b)
		if err != nil {
			if errors.Is(err, ErrIncomplete) {
				incomplete = append(incomplete, b.ID)
				continue
			}
			return nil, err
		}
		recs[b.CellIndex] = append(recs[b.CellIndex], r...)
		events[b.CellIndex] += tr.Events
	}
	if len(incomplete) > 0 {
		return nil, fmt.Errorf("blocks: reduce: %d of %d blocks incomplete %v: %w",
			len(incomplete), len(m.Blocks), incomplete, ErrIncomplete)
	}
	cells := make([]CellResult, len(m.Cells))
	for ci := range cells {
		cells[ci] = FoldCell(m, ci, recs[ci], events[ci])
	}
	return cells, nil
}

// FoldCell merges one cell's replication records, in replication order,
// into its CellResult. It rewrites each record's ci_half_width to the
// cell-global prefix: the block writers journaled a block-local prefix (all
// they could know), and the merged journal must carry the trajectory a
// monolithic run writes. A monolithic run folds its own records through
// here too, so the two journals come from one code path. The fold consumes
// exactly-round-tripped floats in replication order, so the widths are
// bit-identical however the cell was split into blocks.
func FoldCell(m *Manifest, ci int, recs []Record, events uint64) CellResult {
	c := CellResult{Index: ci, Cell: m.Cells[ci], Records: recs, Events: events}
	c.values = stampWidths(m, recs)
	for _, rec := range recs {
		if t, ok := rec.Float("total_useful"); ok {
			c.Totals = append(c.Totals, t)
		}
	}
	return c
}

// stampWidths sets each record's ci_half_width to the prefix half-width of
// the manifest-ValueKey values up to and including it (paired under
// antithetic VR) and returns those values.
func stampWidths(m *Manifest, recs []Record) []float64 {
	est := vr.NewEstimator(m.VR, m.Confidence)
	values := make([]float64, 0, len(recs))
	for _, rec := range recs {
		if v, ok := rec.Float(m.ValueKey); ok {
			values = append(values, v)
			est.Add(v)
			rec.Fields["ci_half_width"] = est.HalfWidth()
		}
	}
	return values
}

// estimateFields builds the closing "estimate" record of a cell: replication
// count, total events, useful-work interval, total-useful interval, and the
// convergence trajectory. Under antithetic VR the record gains a "vr" block
// reporting the measured variance-reduction factor; plain mode emits
// exactly the pre-VR schema, byte for byte.
func estimateFields(m *Manifest, c CellResult) map[string]any {
	frac := vr.NewEstimator(m.VR, m.Confidence)
	frac.Add(c.values...)
	total := vr.NewEstimator(m.VR, m.Confidence)
	total.Add(c.Totals...)
	fields := map[string]any{
		"replications":    len(c.values),
		"events":          c.Events,
		"useful_fraction": intervalFields(frac.Interval()),
		"total_useful":    intervalFields(total.Interval()),
		"convergence":     frac.Trajectory(),
	}
	if r := frac.Report(); r != nil {
		fields["vr"] = r
	}
	if c.Cell.Label != "" {
		fields["label"] = c.Cell.Label
	}
	return fields
}

// completionFields builds the closing record for a completion-kind cell.
func completionFields(m *Manifest, c CellResult) map[string]any {
	wall := vr.NewEstimator(vr.ModeNone, m.Confidence)
	wall.Add(c.values...)
	fields := map[string]any{
		"replications": c.Replications(),
		"events":       c.Events,
		"work":         m.Work,
		"wall_hours":   intervalFields(wall.Interval()),
		"convergence":  wall.Trajectory(),
	}
	if c.Cell.Label != "" {
		fields["label"] = c.Cell.Label
	}
	return fields
}

// intervalFields flattens a stats.Interval for the journal, nulling a
// non-finite half-width (n < 2) the same way obs.Journal treats top-level
// floats so nested maps marshal cleanly.
func intervalFields(iv stats.Interval) map[string]any {
	var hw any = iv.HalfWide
	if !isFinite(iv.HalfWide) {
		hw = nil
	}
	return map[string]any{
		"mean":       iv.Mean,
		"half_width": hw,
		"level":      iv.Level,
		"n":          iv.N,
	}
}

// WriteReduced emits the merged journal: for each cell in manifest order,
// every replication record followed by the closing estimate (or
// completion) record — the same line sequence a monolithic run with the
// same plan writes, byte-identical apart from obs.TimestampFields.
func WriteReduced(j *obs.Journal, m *Manifest, cells []CellResult) error {
	for _, c := range cells {
		if err := WriteCell(j, m, c, nil); err != nil {
			return err
		}
	}
	return nil
}

// WriteCell journals one folded cell: its replication records, then the
// closing estimate (or completion) record with extra's fields added.
// WriteReduced writes every cell through it and a monolithic run writes its
// single cell through it, passing its span check as extra.
func WriteCell(j *obs.Journal, m *Manifest, c CellResult, extra map[string]any) error {
	for _, rec := range c.Records {
		if err := j.Record(rec.Kind, rec.Fields); err != nil {
			return err
		}
	}
	kind, closing := "estimate", estimateFields
	if m.Kind == KindCompletion {
		kind, closing = "completion", completionFields
	}
	fields := closing(m, c)
	for k, v := range extra {
		fields[k] = v
	}
	return j.Record(kind, fields)
}
