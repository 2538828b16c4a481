package colstore

import "fmt"

// ShardTables partitions a table into n disjoint row-range shards, in
// row order: shard 0 holds the first rows, shard n-1 the last. Every
// shard shares the source table's dictionaries in full (columns alias
// the same *Dictionary; codes and measure values alias sub-slices of
// the source arrays — no copying), so all shards expose identical
// candidate and group id spaces even for values that never occur in
// their rows. That shared-dictionary property is what makes the cluster
// coordinator's merge algebra sound across shards.
//
// All shards except the last hold an exact multiple of the block size,
// so every shard boundary is a block boundary of the source table: a
// coordinated scan over the shards reads exactly the blocks a single
// node reads, and its IOStats sum to the single node's.
func ShardTables(tbl *Table, n int) ([]*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("colstore: shard count %d must be positive", n)
	}
	bs, rows := tbl.BlockSize(), tbl.NumRows()
	// Rows per shard, rounded up to a whole block so every boundary is
	// aligned; the last shard absorbs the remainder.
	per := (rows + n - 1) / n
	per = ((per + bs - 1) / bs) * bs
	out := make([]*Table, 0, n)
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if i == n-1 || hi > rows {
			hi = rows
		}
		if lo >= rows && n > 1 {
			return nil, fmt.Errorf("colstore: %d rows cannot fill %d block-aligned shards of %d-row blocks", rows, n, bs)
		}
		if lo > rows {
			lo = rows
		}
		cols := make([]*Column, len(tbl.cols))
		for j, c := range tbl.cols {
			cols[j] = NewColumn(c.Name, c.Dict, c.codes[lo:hi])
		}
		measures := make([]*MeasureColumn, len(tbl.measures))
		for j, m := range tbl.measures {
			measures[j] = NewMeasureColumn(m.Name, m.values[lo:hi])
		}
		shard, err := NewTable(tbl.blockSize, hi-lo, cols, measures)
		if err != nil {
			return nil, err
		}
		out = append(out, shard)
	}
	return out, nil
}
