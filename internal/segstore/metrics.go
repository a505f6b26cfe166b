package segstore

import (
	"time"

	"lockdoc/internal/obs"
)

// Metrics is the segment-store instrument set: segment lifecycle,
// compaction latency, and the blocks inflated and copied forward.
// Attach one via Options.Metrics; a nil *Metrics keeps every hook a
// no-op.
type Metrics struct {
	SegmentsOpened  *obs.Counter
	SegmentsInvalid *obs.Counter
	Compactions     *obs.Counter
	CompactSeconds  *obs.Histogram
	LoadSeconds     *obs.Histogram
	BytesWritten    *obs.Counter
	BlocksInflated  *obs.Counter
	BlocksReused    *obs.Counter
}

// NewMetrics registers the segstore instrument set on reg (nil reg,
// nil metrics).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		SegmentsOpened:  reg.Counter("lockdoc_segstore_segments_opened_total", "segment files opened and mapped"),
		SegmentsInvalid: reg.Counter("lockdoc_segstore_segments_invalid_total", "segments rejected as missing, short, or corrupt"),
		Compactions:     reg.Counter("lockdoc_segstore_compactions_total", "sealed views compacted into state segments"),
		CompactSeconds:  reg.Histogram("lockdoc_segstore_compact_seconds", "Compact call latency", nil),
		LoadSeconds:     reg.Histogram("lockdoc_segstore_load_seconds", "LoadState call latency", nil),
		BytesWritten:    reg.Counter("lockdoc_segstore_bytes_written_total", "compressed segment bytes published"),
		BlocksInflated:  reg.Counter("lockdoc_segstore_blocks_inflated_total", "segment blocks decompressed"),
		BlocksReused:    reg.Counter("lockdoc_segstore_blocks_reused_total", "group blocks copied forward from the previous state segment"),
	}
}

func (m *Metrics) opened() {
	if m != nil {
		m.SegmentsOpened.Inc()
	}
}

func (m *Metrics) invalid() {
	if m != nil {
		m.SegmentsInvalid.Inc()
	}
}

func (m *Metrics) compacted(start time.Time, bytes, reused int) {
	if m != nil {
		m.Compactions.Inc()
		m.CompactSeconds.ObserveSince(start)
		m.BytesWritten.Add(uint64(bytes))
		m.BlocksReused.Add(uint64(reused))
	}
}

func (m *Metrics) wrote(bytes int) {
	if m != nil {
		m.BytesWritten.Add(uint64(bytes))
	}
}

func (m *Metrics) loaded(start time.Time) {
	if m != nil {
		m.LoadSeconds.ObserveSince(start)
	}
}

func (m *Metrics) inflated() {
	if m != nil {
		m.BlocksInflated.Inc()
	}
}
