package engine

import (
	"testing"

	"fastmatch/internal/colstore"
)

// The conformance matrix's cluster rows live in package engine_test,
// because cluster imports engine. These names hand them the matrix: a
// shape's corpus entry and options, the single-node Scan cells their
// cells are held to, the answer form, and the matrix's test doubles.

// MatrixShape is one shape of the matrix.
type MatrixShape = shapeMatrix

// ClusterRows runs a shape's cluster rows after its backend cells, as
// subtests of the shape; package engine_test sets it.
var ClusterRows func(t *testing.T, m *MatrixShape, seed int64)

var (
	MatrixExecutors  = matrixExecutors
	MatrixWorkers    = matrixWorkers
	StopNames        = stopNames
	PairwiseCover    = pairwiseCover
	CanonicalAnswer  = canonicalAnswer
	WithoutSkipMasks = withoutSkipMasks
	CancelAfterRows  = cancelAfterRows
	RefHists         = refHists
)

// Table is the shape's table, as the inmem backend serves it.
func (m *shapeMatrix) Table() *colstore.Table { return m.tbl }

// Query and Target are the shape's, compiled against Table's
// dictionaries.
func (m *shapeMatrix) Query() Query   { return m.shape[0].q }
func (m *shapeMatrix) Target() Target { return m.shape[0].target }

// Options is runOptions under the shape's parameters.
func (m *shapeMatrix) Options(exec Executor, workers int) Options {
	o := runOptions(exec, m.tbl.NumBlocks(), workers)
	o.Params = m.params
	return o
}

// StopPoints are the table's row budget and cancel point.
func (m *shapeMatrix) StopPoints() (budget, cancelAt int64) {
	return m.table.budget, m.table.cancelAt
}

// Scan is the shape's single-node Scan cell (inmem, one worker, no
// observers) at skip and stop (an index into StopNames).
func (m *shapeMatrix) Scan(t *testing.T, skip bool, stop int) (answer string, res *Result, err error) {
	o := m.outcome(t, cell{exec: Scan, workers: 1, skip: skip, stop: stopKind(stop)})
	return o.answer, o.res, o.err
}

// HookReader reports each block's row span to its hook as it is read.
type HookReader = rowHookReader

func NewHookReader(src colstore.Reader) *HookReader { return &rowHookReader{Reader: src} }

func (r *rowHookReader) Set(hook func(lo, hi int)) { r.set(hook) }
