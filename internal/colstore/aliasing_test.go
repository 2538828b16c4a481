package colstore

import "testing"

// The Reader aliasing contract (reader.go): Codes and Values return
// slices that alias backend storage, and callers must treat them as
// read-only. These tests pin both halves of the contract — the aliasing
// (so block reads stay zero-copy on every backend) and the sharing (so a
// write would be visible corruption, which is why the engine must never
// do it; the mmap backend additionally maps pages PROT_READ, turning a
// violation into a fault instead of silent corruption).

func TestCodesAndValuesAliasBackingStorage(t *testing.T) {
	tbl := snapshotFixture(t)
	col, err := tbl.Column("country")
	if err != nil {
		t.Fatal(err)
	}
	a := col.Codes(0, tbl.NumRows())
	b := col.Codes(0, tbl.NumRows())
	if &a[0] != &b[0] {
		t.Fatal("Codes must alias one backing array, not copy")
	}
	// Disjoint spans alias the same array at the right offset.
	mid := tbl.NumRows() / 2
	tail := col.Codes(mid, tbl.NumRows())
	if &tail[0] != &a[mid] {
		t.Fatal("Codes(lo,hi) must be a sub-slice of the column storage")
	}
	m, err := tbl.Measure("amount")
	if err != nil {
		t.Fatal(err)
	}
	v1 := m.Values(0, tbl.NumRows())
	v2 := m.Values(mid, tbl.NumRows())
	if &v2[0] != &v1[mid] {
		t.Fatal("Values(lo,hi) must be a sub-slice of the column storage")
	}
}

// TestBlockReadsLeaveStorageUntouched drives every storage-touching
// consumer (bitmap index, block spans) over a table and
// verifies the underlying codes are bit-identical afterwards: the
// engine-side read-only discipline the mmap backend depends on.
func TestBlockReadsLeaveStorageUntouched(t *testing.T) {
	tbl := snapshotFixture(t)
	col, _ := tbl.Column("country")
	before := append([]uint32(nil), col.Codes(0, tbl.NumRows())...)

	// Sweep all blocks through the Reader interface, as executors do.
	var src Reader = tbl
	c, _ := src.ColumnByName("country")
	var sink uint64
	for b := 0; b < src.NumBlocks(); b++ {
		lo, hi := src.BlockSpan(b)
		for _, code := range c.Codes(lo, hi) {
			sink += uint64(code)
		}
	}
	_ = sink
	after := col.Codes(0, tbl.NumRows())
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d mutated: %d -> %d", i, before[i], after[i])
		}
	}
}
