// Package ingest is the live-ingestion storage backend: a WritableTable
// that accepts appends while serving queries through the engine's
// backend-neutral colstore.Reader seam, so the planner, all five
// executors, and the bitmap index run unmodified over data that is still
// arriving.
//
// The design is a hybrid write/read split in the spirit of HTAP systems
// (cf. Polynesia): a small row-oriented write side is continuously folded
// into the one column-oriented layout the engine reads.
//
//	appends ──▶ WAL (CRC'd records, fsync ack) ──▶ interning
//	                                                 │
//	                                                 ▼
//	                              columnar spine (append-only; every read)
//	                                 │ every SealRows rows: seal
//	                                 ▼
//	               sealed prefix ──▶ table-wide block summary (presence
//	                 │                words + measure ranges, extended
//	                 │                lazily by the first view to ask)
//	                 ▼ background compactor
//	         snapshot segment file + manifest swap + WAL truncation
//
// Sealing only advances the sealed row count: it marks the prefix whose
// blocks the summary may describe exactly. A TableView is the spine
// prefix at one generation plus exact block statistics: sealed blocks
// answered from the summary, the unsealed tail's presence built on
// demand. The summary, the tail and every other backend's statistics
// come from one builder (colstore.TableBlockStats.Summarize), and
// bitmap.Build adopts a view's presence words as the index, so a live
// table has no index path of its own.
//
// Segment files are the writer's persistence units, never read by
// queries: compaction writes them and truncates the WAL, and boot copies
// them back into the spine and closes them.
//
// Queries never block appends: a view is a handful of slice headers
// taken under the table mutex, and the summary has its own mutex.
//
// Durability: Append returns only after the batch's WAL record is fully
// written (and fsynced unless Options.NoSync) — those rows are "acked"
// and survive kill -9. Startup loads manifest-listed segment files and
// then replays the WAL tail; a torn trailing record (crash mid-write)
// fails its CRC or length check and is truncated away, recovering
// exactly the acked rows.
package ingest

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"fastmatch/internal/colstore"
)

// Sentinel errors callers branch on (errors.Is). Serving layers map
// ErrInvalidRow to a client error and ErrClosed to an
// unavailable/retry-later response; anything else from Append is a
// storage-side fault.
var (
	// ErrInvalidRow marks a rejected append batch: a row missing a
	// schema column or measure, a non-finite or negative measure, an
	// unknown key, or an empty batch. The table is untouched.
	ErrInvalidRow = errors.New("invalid row")
	// ErrClosed marks operations on a closed table.
	ErrClosed = errors.New("table is closed")
	// ErrCorrupt marks on-disk state that fails validation: a manifest
	// that does not describe a valid table, or an intact (CRC-checked)
	// WAL record that does not decode. A torn WAL tail is not corrupt;
	// replay truncates it.
	ErrCorrupt = errors.New("corrupt table state")
)

// Schema declares a writable table's shape up front. Like the batch
// Builder, the store has no NULL concept: every append must provide a
// value for every column and measure.
type Schema struct {
	// Columns lists the categorical column names in declaration order.
	Columns []string `json:"columns"`
	// Measures lists the numeric measure column names (non-negative
	// values, matching the batch loader's measure contract).
	Measures []string `json:"measures,omitempty"`
	// BlockSize is the tuples-per-block granularity; ≤ 0 selects
	// colstore.DefaultBlockSize.
	BlockSize int `json:"block_size,omitempty"`
}

// validate normalizes the schema and rejects duplicates and emptiness.
func (s *Schema) validate() error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("ingest: schema needs at least one column")
	}
	if s.BlockSize <= 0 {
		s.BlockSize = colstore.DefaultBlockSize
	}
	if s.BlockSize > 1<<31 { // the snapshot format's bound
		return fmt.Errorf("ingest: block size %d out of range", s.BlockSize)
	}
	seen := make(map[string]bool, len(s.Columns)+len(s.Measures))
	for _, c := range s.Columns {
		if c == "" {
			return fmt.Errorf("ingest: empty column name")
		}
		if seen[c] {
			return fmt.Errorf("ingest: duplicate column %q", c)
		}
		seen[c] = true
	}
	for _, m := range s.Measures {
		if m == "" {
			return fmt.Errorf("ingest: empty measure name")
		}
		if seen[m] {
			return fmt.Errorf("ingest: duplicate measure %q", m)
		}
		seen[m] = true
	}
	return nil
}

// equal reports whether two schemas describe the same table shape.
func (s Schema) equal(o Schema) bool {
	if s.BlockSize != o.BlockSize || len(s.Columns) != len(o.Columns) || len(s.Measures) != len(o.Measures) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range s.Measures {
		if s.Measures[i] != o.Measures[i] {
			return false
		}
	}
	return true
}

// Row is one appended tuple: string values keyed by column name and
// numeric values keyed by measure name.
type Row struct {
	Values   map[string]string  `json:"values"`
	Measures map[string]float64 `json:"measures,omitempty"`
}

// Options tunes a WritableTable. The zero value is production-safe:
// fsync on every append, sealing every 64 blocks, background compaction.
type Options struct {
	// SealRows is how many rows accumulate before the write side seals
	// them: the sealed prefix is what the block summary describes and what
	// compaction persists. It is rounded up to a multiple of the block
	// size so segment files stay block-aligned (which keeps the table-wide
	// block grid identical to a batch-loaded table). ≤ 0 selects 64
	// blocks' worth of rows.
	SealRows int
	// NoSync skips the fdatasync after each WAL record. Appends get much
	// faster; rows acked since the last sync can be lost on power failure
	// (not on clean process death — the OS still has the writes).
	NoSync bool
	// CompactInterval is the background compactor's wake-up period; 0
	// selects 1s, negative disables the background loop entirely (tests
	// and embedders then drive CompactNow themselves).
	CompactInterval time.Duration
	// MaxSegmentFiles bounds how many snapshot files the table keeps on
	// disk before the compactor merges them all into one; ≤ 0 selects 4.
	MaxSegmentFiles int
	// Logger receives the table's structured lifecycle logs (WAL replay
	// at open, segment seals, compaction cycles and their failures). Nil
	// discards everything.
	Logger *slog.Logger
}

// withDefaults resolves zero values against the schema's block size.
func (o Options) withDefaults(blockSize int) Options {
	if o.SealRows <= 0 {
		o.SealRows = 64 * blockSize
	}
	if rem := o.SealRows % blockSize; rem != 0 {
		o.SealRows += blockSize - rem
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = time.Second
	}
	if o.MaxSegmentFiles <= 0 {
		o.MaxSegmentFiles = 4
	}
	return o
}

// AppendResult reports one acknowledged append batch.
type AppendResult struct {
	// FirstRow is the row index of the batch's first tuple.
	FirstRow int `json:"first_row"`
	// Rows is the number of tuples appended.
	Rows int `json:"rows"`
	// TotalRows is the table's row count after the batch.
	TotalRows int `json:"total_rows"`
	// Generation is the data version after the batch; it increases with
	// every acked append (serving layers key caches on it).
	Generation uint64 `json:"generation"`
	// Synced reports whether the WAL was fsynced before acking.
	Synced bool `json:"synced"`
}

// MeasureRange is a measure column's observed [Min, Max] over every
// row of the table, maintained as rows are applied.
type MeasureRange struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Stats is a point-in-time snapshot of a WritableTable's ingest state,
// surfaced by the serving layer's /v1/stats.
type Stats struct {
	Rows          int    `json:"rows"`
	SealedRows    int    `json:"sealed_rows"`
	PersistedRows int    `json:"persisted_rows"`
	Generation    uint64 `json:"generation"`
	// SegmentFiles counts the compacted snapshot files on disk.
	SegmentFiles int `json:"segment_files"`
	// AppendBatches / AppendedRows count acked appends since open.
	AppendBatches int64 `json:"append_batches"`
	AppendedRows  int64 `json:"appended_rows"`
	// ReplayedRows counts rows recovered from the WAL at open.
	ReplayedRows int64 `json:"replayed_rows"`
	// WALBytes / WALFiles / WALSyncs describe the live write-ahead log.
	WALBytes int64 `json:"wal_bytes"`
	WALFiles int   `json:"wal_files"`
	WALSyncs int64 `json:"wal_syncs"`
	// Seals / Compactions count SealRows runs sealed and compaction
	// cycles committed;
	// CompactErrors counts failed compaction cycles and LastCompactError
	// describes the most recent one (empty when the last cycle
	// succeeded) — the operator's signal that persistence has stalled
	// and the WAL is growing.
	Seals            int64  `json:"seals"`
	Compactions      int64  `json:"compactions"`
	CompactErrors    int64  `json:"compact_errors,omitempty"`
	LastCompactError string `json:"last_compact_error,omitempty"`
	// MeasureRanges is the observed value range per measure column,
	// sealed and unsealed rows alike (omitted while the table is empty).
	MeasureRanges map[string]MeasureRange `json:"measure_ranges,omitempty"`
}
