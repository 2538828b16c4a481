package server

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"fastmatch/internal/ingest"
)

// Live-ingestion endpoints:
//
//	POST /v1/tables/{name}/rows   append rows to an ingest-backed table
//	POST /v1/admin/unload         drop a table from the registry
//
// The append endpoint accepts two bodies:
//
//   - application/json (default): {"rows": [{"values": {...},
//     "measures": {...}}, ...]} — one atomic batch, acked after its WAL
//     record is durable.
//   - text/csv: a streamed CSV whose header names schema columns and
//     measures in any order; rows are appended in batches of
//     csvAppendBatch, each batch individually acked (a mid-stream error
//     reports how many rows were already durable).

// appendMaxBody bounds a JSON append body; CSV bodies stream and get a
// much larger cap.
const (
	appendMaxBody    = 32 << 20
	csvAppendMaxBody = 1 << 30
	csvAppendBatch   = 4096
)

// errBadAppendBody marks append failures caused by an undecodable or
// malformed request body (as opposed to rows the table rejected, or
// storage faults) — mapped to 422 like ingest.ErrInvalidRow.
var errBadAppendBody = errors.New("malformed append body")

// AppendRequest is the JSON body of POST /v1/tables/{name}/rows.
type AppendRequest struct {
	Rows []ingest.Row `json:"rows"`
}

// AppendResponse is the body of a successful append.
type AppendResponse struct {
	Table string `json:"table"`
	// Appended counts rows made durable by this request.
	Appended int `json:"appended"`
	// TotalRows is the table's row count after the append.
	TotalRows int `json:"total_rows"`
	// Generation is the table's data version after the append.
	Generation uint64 `json:"generation"`
	// Synced reports whether the WAL was fsynced before acking.
	Synced bool `json:"synced"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, ok := s.reg.acquire(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no table %q (see /v1/tables)", name)
		return
	}
	defer entry.release()
	if entry.live == nil {
		writeError(w, http.StatusConflict, "table %q: %v (backend %q)", name, errNotIngest,
			entry.eng.Source().Storage().Backend)
		return
	}
	var appended int
	var last ingest.AppendResult
	var err error
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "text/csv") {
		appended, last, err = appendCSV(entry.live, http.MaxBytesReader(w, r.Body, csvAppendMaxBody))
	} else {
		appended, last, err = appendJSON(entry.live, http.MaxBytesReader(w, r.Body, appendMaxBody))
	}
	entry.metrics.observeAppend(appended, err != nil)
	if err != nil {
		// Status reflects blame: bad rows/bodies are the client's (422,
		// don't retry as-is); a closed table is transient (503, retry);
		// anything else is a storage-side fault (500) — e.g. a poisoned
		// WAL — that a retry of the same request won't fix either way.
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ingest.ErrClosed):
			w.Header().Set("Retry-After", "1")
			status = http.StatusServiceUnavailable
		case errors.Is(err, ingest.ErrInvalidRow), errors.Is(err, errBadAppendBody):
			status = http.StatusUnprocessableEntity
		}
		// Batches are atomic but a CSV stream is not: surface how much of
		// it was already acked before the failure.
		writeError(w, status, "append to %q: %v (%d rows durable before the error)",
			name, err, appended)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Table:      name,
		Appended:   appended,
		TotalRows:  last.TotalRows,
		Generation: last.Generation,
		Synced:     last.Synced,
	})
}

// appendJSON decodes and appends one atomic batch.
func appendJSON(wt *ingest.WritableTable, body io.Reader) (int, ingest.AppendResult, error) {
	var req AppendRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return 0, ingest.AppendResult{}, fmt.Errorf("%w: decoding body: %v", errBadAppendBody, err)
	}
	res, err := wt.Append(req.Rows)
	if err != nil {
		return 0, ingest.AppendResult{}, err
	}
	return res.Rows, res, nil
}

// appendCSV streams a headered CSV into batched appends.
func appendCSV(wt *ingest.WritableTable, body io.Reader) (int, ingest.AppendResult, error) {
	schema := wt.Schema()
	cr := csv.NewReader(body)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, ingest.AppendResult{}, fmt.Errorf("%w: reading CSV header: %v", errBadAppendBody, err)
	}
	// Map header fields onto schema columns and measures; every schema
	// field must appear exactly once (extra CSV columns are an error —
	// the store has no concept of dropping attributes silently).
	colIdx := make(map[string]int, len(schema.Columns))
	measIdx := make(map[string]int, len(schema.Measures))
	isMeasure := make(map[string]bool, len(schema.Measures))
	for _, m := range schema.Measures {
		isMeasure[m] = true
	}
	isColumn := make(map[string]bool, len(schema.Columns))
	for _, c := range schema.Columns {
		isColumn[c] = true
	}
	for i, h := range header {
		switch {
		case isColumn[h]:
			if _, dup := colIdx[h]; dup {
				return 0, ingest.AppendResult{}, fmt.Errorf("%w: CSV header repeats column %q", errBadAppendBody, h)
			}
			colIdx[h] = i
		case isMeasure[h]:
			if _, dup := measIdx[h]; dup {
				return 0, ingest.AppendResult{}, fmt.Errorf("%w: CSV header repeats measure %q", errBadAppendBody, h)
			}
			measIdx[h] = i
		default:
			return 0, ingest.AppendResult{}, fmt.Errorf("%w: CSV header has unknown field %q", errBadAppendBody, h)
		}
	}
	if len(colIdx) != len(schema.Columns) || len(measIdx) != len(schema.Measures) {
		return 0, ingest.AppendResult{}, fmt.Errorf("%w: CSV header covers %d/%d columns and %d/%d measures",
			errBadAppendBody, len(colIdx), len(schema.Columns), len(measIdx), len(schema.Measures))
	}

	var appended int
	var last ingest.AppendResult
	batch := make([]ingest.Row, 0, csvAppendBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res, err := wt.Append(batch)
		if err != nil {
			return err
		}
		appended += res.Rows
		last = res
		batch = batch[:0]
		return nil
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return appended, last, fmt.Errorf("%w: CSV line %d: %v", errBadAppendBody, line+1, err)
		}
		line++
		row := ingest.Row{Values: make(map[string]string, len(schema.Columns))}
		if len(schema.Measures) > 0 {
			row.Measures = make(map[string]float64, len(schema.Measures))
		}
		for _, c := range schema.Columns {
			row.Values[c] = rec[colIdx[c]]
		}
		for _, m := range schema.Measures {
			v, err := strconv.ParseFloat(rec[measIdx[m]], 64)
			if err != nil {
				return appended, last, fmt.Errorf("%w: CSV line %d: measure %q: %v", errBadAppendBody, line, m, err)
			}
			row.Measures[m] = v
		}
		batch = append(batch, row)
		if len(batch) == csvAppendBatch {
			if err := flush(); err != nil {
				return appended, last, err
			}
		}
	}
	if err := flush(); err != nil {
		return appended, last, err
	}
	if appended == 0 {
		return 0, last, fmt.Errorf("%w: CSV body has no data rows", errBadAppendBody)
	}
	return appended, last, nil
}

// UnloadRequest is the body of POST /v1/admin/unload.
type UnloadRequest struct {
	Name string `json:"name"`
}

func (s *Server) handleAdminUnload(w http.ResponseWriter, r *http.Request) {
	var req UnloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding unload request: %v", err)
		return
	}
	switch err := s.reg.unload(req.Name); {
	case err == nil:
		writeJSON(w, http.StatusOK, TablesResponse{Tables: s.reg.list()})
	case errors.Is(err, errTableNotFound):
		writeError(w, http.StatusNotFound, "no table %q", req.Name)
	case errors.Is(err, errTableBusy):
		// In-flight queries hold the table; the client should retry once
		// they drain.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "table %q: %v", req.Name, err)
	default:
		writeError(w, http.StatusInternalServerError, "unloading %q: %v", req.Name, err)
	}
}
