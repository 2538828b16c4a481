package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/internal/colstore"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 63, 64, 65, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
}

func TestBitsetWordAccess(t *testing.T) {
	b := NewBitset(100)
	b.Set(0)
	b.Set(65)
	if b.Word(0) != 1 {
		t.Fatalf("Word(0) = %x", b.Word(0))
	}
	if b.Word(1) != 2 {
		t.Fatalf("Word(1) = %x", b.Word(1))
	}
	if b.Word(5) != 0 || b.Word(-1) != 0 {
		t.Fatal("out-of-range words should read zero")
	}
	if b.NumWords() != 2 {
		t.Fatalf("NumWords = %d", b.NumWords())
	}
}

func TestBitsetOrAnd(t *testing.T) {
	a, b := NewBitset(70), NewBitset(70)
	a.Set(1)
	a.Set(69)
	b.Set(1)
	b.Set(5)
	c := a.Clone()
	if err := c.Or(b); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 3 || !c.Get(1) || !c.Get(5) || !c.Get(69) {
		t.Fatal("Or wrong")
	}
	d := a.Clone()
	if err := d.And(b); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 1 || !d.Get(1) {
		t.Fatal("And wrong")
	}
	if err := a.Or(NewBitset(5)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := a.And(NewBitset(5)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// buildTestTable builds a table with one candidate column z and rows rows,
// where row i has z = zcodes[i].
func buildTestTable(t testing.TB, blockSize int, zcodes []uint32, card int) *colstore.Table {
	t.Helper()
	b := colstore.NewBuilder(blockSize)
	zc, err := b.AddColumn("z")
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < card; v++ {
		zc.Dict.Intern(string(rune('a'+v%26)) + string(rune('0'+v/26)))
	}
	for _, code := range zcodes {
		if err := b.AppendCodes([]uint32{code}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestIndexBuildAndContains(t *testing.T) {
	// 3 blocks of 2: [0,1],[2,0],[1,1]
	tbl := buildTestTable(t, 2, []uint32{0, 1, 2, 0, 1, 1}, 3)
	idx, err := Build(tbl, "z")
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumBlocks() != 3 || idx.NumValues() != 3 {
		t.Fatalf("geometry: %d blocks %d values", idx.NumBlocks(), idx.NumValues())
	}
	wantBits := map[[2]int]bool{
		{0, 0}: true, {0, 1}: true, {0, 2}: false,
		{1, 0}: true, {1, 1}: false, {1, 2}: true,
		{2, 0}: false, {2, 1}: true, {2, 2}: false,
	}
	for key, want := range wantBits {
		vb, err := idx.ValueBitset(uint32(key[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got := vb.Get(key[1]); got != want {
			t.Errorf("ValueBitset(%d).Get(%d) = %v, want %v", key[0], key[1], got, want)
		}
	}
}

func TestIndexBuildMissingColumn(t *testing.T) {
	tbl := buildTestTable(t, 2, []uint32{0}, 1)
	if _, err := Build(tbl, "nope"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestValueBitset(t *testing.T) {
	tbl := buildTestTable(t, 2, []uint32{0, 1}, 2)
	idx, _ := Build(tbl, "z")
	if _, err := idx.ValueBitset(5); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	bs, err := idx.ValueBitset(0)
	if err != nil || !bs.Get(0) {
		t.Fatal("ValueBitset wrong")
	}
}

// Property: the index bit is set iff the block contains the value — checked
// against a brute-force scan on random tables.
func TestIndexInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600) + 1
		card := rng.Intn(10) + 1
		bs := rng.Intn(30) + 1
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(card))
		}
		tbl := buildTestTable(t, bs, codes, card)
		idx, err := Build(tbl, "z")
		if err != nil {
			return false
		}
		for b := 0; b < tbl.NumBlocks(); b++ {
			lo, hi := tbl.BlockSpan(b)
			present := make(map[uint32]bool)
			for _, c := range codes[lo:hi] {
				present[c] = true
			}
			for v := 0; v < card; v++ {
				if vb, err := idx.ValueBitset(uint32(v)); err != nil || vb.Get(b) != present[uint32(v)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: MarkAnyActive agrees with the naive BlockAnyActive on every
// block of every window (Algorithm 3 ≡ Algorithm 2), for cardinalities up
// to ~400 and windows up to 1,100 blocks that start anywhere inside a
// word and may run past NumBlocks (those blocks read unmarked).
func TestMarkAnyActiveMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6000) + 10
		card := rng.Intn(400) + 2
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(card))
		}
		tbl := buildTestTable(t, rng.Intn(8)+1, codes, card)
		idx, err := Build(tbl, "z")
		if err != nil {
			return false
		}
		nActive := rng.Intn(card) + 1
		active := make([]uint32, 0, nActive)
		seen := map[uint32]bool{}
		for len(active) < nActive {
			v := uint32(rng.Intn(card))
			if !seen[v] {
				seen[v] = true
				active = append(active, v)
			}
		}
		nb := idx.NumBlocks()
		start := rng.Intn(nb)
		if rng.Intn(4) == 0 {
			start = nb - 1 - rng.Intn(min(nb, 130)) // run past the end
		}
		mark := make([]bool, rng.Intn(1100)+1)
		for i := range mark {
			mark[i] = true // every entry must be overwritten
		}
		idx.MarkAnyActive(active, start, mark)
		for i := range mark {
			b := start + i
			want := false
			if b < nb {
				want = idx.BlockAnyActive(active, b)
			}
			if mark[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkAnyActiveEdges(t *testing.T) {
	tbl := buildTestTable(t, 1, []uint32{0, 1, 0, 1}, 2)
	idx, _ := Build(tbl, "z")
	// Start beyond range: everything unmarked.
	mark := []bool{true, true}
	idx.MarkAnyActive([]uint32{0}, 10, mark)
	if mark[0] || mark[1] {
		t.Fatal("marks beyond range should be false")
	}
	// Empty mark slice: no panic.
	idx.MarkAnyActive([]uint32{0}, 0, nil)
	// Empty active set: nothing marked.
	mark = make([]bool, 4)
	idx.MarkAnyActive(nil, 0, mark)
	for _, m := range mark {
		if m {
			t.Fatal("no active candidates should mark nothing")
		}
	}
}

// BenchmarkMarkAnyActive marks one 1,024-block lookahead tile with 347
// active values — FLIGHTS' Origin cardinality — over an index whose
// 256-row blocks each draw their codes from a skewed distribution, so
// common values are in nearly every block and rare ones in few.
func BenchmarkMarkAnyActive(b *testing.B) {
	const values, blocks, rowsPerBlock, tile = 347, 4096, 256, 1024
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 4, values-1)
	idx := &Index{perValue: make([]*Bitset, values), blocks: blocks}
	for v := range idx.perValue {
		idx.perValue[v] = NewBitset(blocks)
	}
	for blk := 0; blk < blocks; blk++ {
		for r := 0; r < rowsPerBlock; r++ {
			idx.perValue[zipf.Uint64()].Set(blk)
		}
	}
	active := make([]uint32, values)
	for v := range active {
		active[v] = uint32(v)
	}
	mark := make([]bool, tile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.MarkAnyActive(active, tile, mark)
	}
}
