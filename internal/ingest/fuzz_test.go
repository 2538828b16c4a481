package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Native fuzz targets for the two decoders that read ingest state back
// from disk. Seed corpora live in testdata/fuzz/<target>/; run a target
// with, e.g.,
//
//	go test -run=NONE -fuzz=FuzzWALRecord -fuzztime=15s ./internal/ingest/
//
// The invariant for both: the result is an ErrCorrupt error or a valid
// value — never a panic, never an allocation sized by an unchecked
// length.

// FuzzWALRecord feeds arbitrary payloads to decodeWALRecord (replay
// reaches it only after the CRC matched, so the payload is what a bit
// flip before the checksum, or a hostile file, would deliver). An
// accepted payload must re-encode to the same bytes.
func FuzzWALRecord(f *testing.F) {
	schema := testSchema()
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Allocation is averaged over a few decodes: TotalAlloc is
		// process-wide, and a single reading also counts the runtime's own.
		const reps = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			_, _, _ = decodeWALRecord(payload, schema)
		}
		runtime.ReadMemStats(&after)
		// A row costs at least 16 payload bytes here (two value lengths
		// and a measure) and about 600 bytes of maps on the heap.
		if alloc := (after.TotalAlloc - before.TotalAlloc) / reps; alloc > 64*uint64(len(payload))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), alloc)
		}
		first, rows, err := decodeWALRecord(payload, schema)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got := encodeWALRecord(nil, schema, first, rows); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoding an accepted record changed it: %d bytes in, %d out", len(payload), len(got))
		}
	})
}

// FuzzManifest writes arbitrary bytes as a table directory's manifest,
// then reads it and opens the table with an empty schema, the path a
// server takes for an existing directory. A table that opens must accept
// a durable append and serve a view of it.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, found, readErr := readManifest(dir)
		if readErr != nil && !errors.Is(readErr, ErrCorrupt) {
			t.Fatalf("untyped manifest error: %v", readErr)
		}
		if readErr == nil && !found {
			t.Fatal("an existing manifest reported as absent")
		}
		wt, err := Open(dir, Schema{}, Options{CompactInterval: -1, NoSync: true})
		if err != nil {
			return // a listed segment file may be missing: also an error, just not ErrCorrupt
		}
		defer wt.Close()
		if readErr != nil {
			t.Fatalf("Open accepted a manifest readManifest rejects: %v", readErr)
		}
		schema := wt.Schema()
		row := Row{Values: make(map[string]string), Measures: make(map[string]float64)}
		for _, c := range schema.Columns {
			row.Values[c] = "v"
		}
		for _, m := range schema.Measures {
			row.Measures[m] = 1
		}
		if _, err := wt.Append([]Row{row}); err != nil {
			t.Fatalf("append to an opened table: %v", err)
		}
		v, err := wt.View()
		if err != nil {
			t.Fatalf("view of an opened table: %v", err)
		}
		if v.NumRows() != m.PersistedRows+1 {
			t.Fatalf("view holds %d rows, want %d", v.NumRows(), m.PersistedRows+1)
		}
		v.Release()
	})
}
