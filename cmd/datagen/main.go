// Command datagen generates a synthetic dataset (flights, taxi, or
// police shaped — see internal/datagen) and writes it as headered CSV to
// stdout or a file, for use with cmd/fastmatch or external tools.
//
// Usage:
//
//	go run ./cmd/datagen -dataset taxi -rows 100000 -out taxi.csv
//	go run ./cmd/datagen -dataset flights -rows 50000 | head
//	go run ./cmd/datagen -dataset flights -rows 500000 -out "" -snapshot flights.fms
//
//	# stream rows into a live fastmatchd ingest table at 5000 rows/s
//	go run ./cmd/datagen -dataset flights -rows 100000 -out "" \
//	    -stream http://localhost:8080/v1/tables/live/rows -stream-rate 5000
//
// -snapshot additionally writes the built table as a binary snapshot
// (see internal/colstore: WriteSnapshot) that fastmatchd can cold-start
// from without CSV re-parsing; pass -out "" to skip the CSV entirely.
// Snapshots are written in the one format colstore reads (v3: 8-byte-
// aligned sections, mmap-able zero-copy with -table name=path?backend=mmap,
// plus a per-block statistics section for zone-map block skipping);
// re-running with -snapshot is how v1/v2 files are rewritten.
//
// -shards N splits the table into N disjoint row-range shard snapshots
// (x.fms -> x-shard0.fms ... x-shardN-1.fms) for a fastmatchd cluster:
// every shard carries the FULL dictionaries (identical candidate/group
// id spaces) and all but the last hold a whole number of blocks, so
// every shard's blocks are blocks of the unsplit table and a
// coordinator's exact
// scatter-gather answer over the shards is byte-identical to a single
// node scanning the unsplit snapshot.
//
// -stream POSTs the generated rows to a running fastmatchd append
// endpoint as batched text/csv requests, rate-limited by -stream-rate
// (rows per second; 0 streams as fast as the daemon acks). The target
// ingest table's schema must cover the dataset's columns and measures
// (e.g. boot with ?backend=ingest&columns=... matching -summary output).
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fastmatch/internal/colstore"
	"fastmatch/internal/datagen"
	"fastmatch/internal/obs/logx"
)

// shardPath derives shard i's snapshot path: "x.fms" -> "x-shard0.fms".
func shardPath(base string, i int) string {
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s-shard%d%s", strings.TrimSuffix(base, ext), i, ext)
}

func main() {
	dataset := flag.String("dataset", "flights", "preset: flights, taxi, or police")
	rows := flag.Int("rows", 100_000, "number of tuples")
	seed := flag.Int64("seed", 1, "generation seed")
	out := flag.String("out", "-", "CSV output path (- for stdout, empty to skip CSV)")
	snapshot := flag.String("snapshot", "", "also write a binary table snapshot to this path")
	shards := flag.Int("shards", 0, "with -snapshot: split the table into N disjoint row-range shard snapshots (name-shardK.ext), block-aligned for coordinator byte-identity")
	summary := flag.Bool("summary", false, "print per-column summaries to stderr")
	stream := flag.String("stream", "", "POST rows to this fastmatchd append endpoint (e.g. http://host:8080/v1/tables/NAME/rows)")
	streamRate := flag.Int("stream-rate", 0, "rows per second for -stream (0 = unthrottled)")
	streamBatch := flag.Int("stream-batch", 1000, "rows per -stream request")
	logFormat := flag.String("log-format", "text", "structured -stream progress log format: text or json")
	flag.Parse()

	ds, err := datagen.ByName(*dataset, *rows, *seed, 0)
	if err != nil {
		log.Fatal(err)
	}
	if *summary {
		fmt.Fprintf(os.Stderr, "dataset %s: %d rows, %d blocks\n",
			*dataset, ds.Table.NumRows(), ds.Table.NumBlocks())
		for _, name := range ds.Table.Columns() {
			col, err := ds.Table.Column(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "  %-16s cardinality %d\n", name, col.Cardinality())
		}
	}
	if *snapshot != "" {
		if *shards > 1 {
			// Shard boundaries land on block boundaries, so a coordinated
			// K-shard scan reads the same blocks a single node over the
			// concatenated data reads (see internal/cluster). Shards share
			// the table's full dictionaries by construction.
			parts, err := colstore.ShardTables(ds.Table, *shards)
			if err != nil {
				log.Fatal(err)
			}
			for i, part := range parts {
				path := shardPath(*snapshot, i)
				if err := colstore.WriteSnapshotFile(part, path); err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "shard %d snapshot: %d rows, %d blocks -> %s\n",
					i, part.NumRows(), part.NumBlocks(), path)
			}
		} else {
			if err := colstore.WriteSnapshotFile(ds.Table, *snapshot); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *snapshot)
		}
	}
	if *stream != "" {
		logger, err := logx.New(os.Stderr, *logFormat, slog.LevelInfo)
		if err != nil {
			log.Fatal(err)
		}
		if err := streamRows(ds.Table, *stream, *streamRate, *streamBatch, logger); err != nil {
			log.Fatal(err)
		}
	}
	if *out == "" {
		return
	}
	var w *bufio.Writer
	if *out == "-" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = bufio.NewWriter(f)
	}
	if err := colstore.WriteCSV(ds.Table, w); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

// streamRows POSTs the table's rows to a fastmatchd append endpoint as
// batched text/csv requests, pacing batches to rate rows per second,
// logging structured progress (rows sent, achieved rate, server acks)
// about once a second.
func streamRows(tbl *colstore.Table, url string, rate, batch int, logger *slog.Logger) error {
	if batch <= 0 {
		batch = 1000
	}
	colNames := tbl.Columns()
	cols := make([]*colstore.Column, len(colNames))
	for i, name := range colNames {
		c, err := tbl.Column(name)
		if err != nil {
			return err
		}
		cols[i] = c
	}
	measNames := tbl.MeasureNames()
	measures := make([]*colstore.MeasureColumn, len(measNames))
	for i, name := range measNames {
		m, err := tbl.Measure(name)
		if err != nil {
			return err
		}
		measures[i] = m
	}
	header := append(append([]string{}, colNames...), measNames...)
	record := make([]string, len(header))

	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(batch) / float64(rate) * float64(time.Second))
	}
	began := time.Now()
	next := began
	lastLog := began
	var body bytes.Buffer
	sent, acks := 0, 0
	total := tbl.NumRows()
	for lo := 0; lo < total; lo += batch {
		hi := lo + batch
		if hi > total {
			hi = total
		}
		body.Reset()
		cw := csv.NewWriter(&body)
		if err := cw.Write(header); err != nil {
			return err
		}
		for r := lo; r < hi; r++ {
			for i, c := range cols {
				record[i] = c.Dict.Value(c.Code(r))
			}
			for i, m := range measures {
				record[len(cols)+i] = strconv.FormatFloat(m.Value(r), 'g', -1, 64)
			}
			if err := cw.Write(record); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		resp, err := http.Post(url, "text/csv", bytes.NewReader(body.Bytes()))
		if err != nil {
			return fmt.Errorf("streaming rows %d-%d: %w", lo, hi, err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return fmt.Errorf("streaming rows %d-%d: %s: %s", lo, hi, resp.Status, msg)
		}
		// The daemon acks each batch with its post-append state; decode it
		// so progress logs report what the server made durable, not just
		// what was sent.
		var ack struct {
			TotalRows  int    `json:"total_rows"`
			Generation uint64 `json:"generation"`
			Synced     bool   `json:"synced"`
		}
		ackOK := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ack) == nil
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sent = hi
		acks++
		if now := time.Now(); now.Sub(lastLog) >= time.Second || sent == total {
			attrs := []any{
				"rows_sent", sent,
				"total", total,
				"acks", acks,
				"rows_per_sec", int(float64(sent) / now.Sub(began).Seconds()),
			}
			if ackOK {
				attrs = append(attrs,
					"server_rows", ack.TotalRows,
					"generation", ack.Generation,
					"synced", ack.Synced,
				)
			}
			logger.Info("stream progress", attrs...)
			lastLog = now
		}
	}
	elapsed := time.Since(began).Seconds()
	logger.Info("stream done",
		"rows", sent, "acks", acks, "target", url,
		"elapsed_s", elapsed, "rows_per_sec", int(float64(sent)/elapsed))
	return nil
}
