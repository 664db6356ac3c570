// Command scoded-serve runs SCODED as a long-lived HTTP detection service:
// dataset and constraint registries, check / checkall / drilldown
// endpoints, streaming monitors, and plain-text metrics. See the
// "Running the service" section of the README for the endpoint catalogue
// and curl examples.
//
// Usage:
//
//	scoded-serve [-addr :8080] [-data-dir /var/lib/scoded]
//	             [-load name=path.csv ...] [-workers N]
//	             [-request-timeout 30s] [-ingest-queue N]
//	             [-alert-webhook URL] [-alert-retries N]
//	             [-alert-backoff 100ms] [-resident-bytes N]
//	             [-scan-window-rows N]
//
// With -data-dir set, the service is durable: datasets, constraints and
// monitors are written through to an append-only columnar store under that
// directory and restored on boot, so a restart resumes exactly where the
// previous process stopped. A -load dataset whose name already exists in
// the store is skipped (the store's copy wins).
//
// Boot registers stored datasets from their manifests alone; rows load
// lazily on first touch. With -resident-bytes set, materialized relations
// are held under that byte budget by an LRU (unreferenced ones are evicted
// back to cold form), and a /v1/checkall against a dataset larger than the
// whole budget streams segment-at-a-time sufficient statistics — bounded
// further by -scan-window-rows — with bit-identical results.
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting. With -request-timeout set, every request's
// context carries a server-side deadline: a check, drill-down or observe
// batch that outlives it is cancelled and answered 504.
//
// Streaming ingest (POST /v1/monitors/{id}/records) applies admission
// control: -ingest-queue bounds concurrent batches per monitor, and an
// over-limit request is refused with 429 + Retry-After instead of being
// buffered. When a monitor's verdict flips to violated, an alert is
// POSTed to its webhook (or the -alert-webhook fallback), retried
// -alert-retries times with doubling backoff from -alert-backoff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scoded/internal/relation"
	"scoded/internal/server"
	"scoded/internal/store"
)

// loadFlags collects repeatable -load name=path.csv flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	fs := flag.NewFlagSet("scoded-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "checkall and drill-down worker pool size (0 = GOMAXPROCS)")
	maxUpload := fs.Int64("max-upload", 32<<20, "maximum CSV upload size in bytes")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain budget")
	requestTimeout := fs.Duration("request-timeout", 0, "server-side deadline per request; expired requests answer 504 (0 = none)")
	dataDir := fs.String("data-dir", "", "durable store directory; empty keeps all state in memory")
	ingestQueue := fs.Int("ingest-queue", 0, "record batches admitted per monitor before 429 backpressure (0 = 16)")
	alertWebhook := fs.String("alert-webhook", "", "fallback webhook URL POSTed when a monitor's verdict flips to violated")
	alertRetries := fs.Int("alert-retries", 0, "webhook delivery attempts per alert (0 = 3)")
	alertBackoff := fs.Duration("alert-backoff", 0, "initial webhook retry delay, doubled per attempt (0 = 100ms)")
	residentBytes := fs.Int64("resident-bytes", 0, "byte budget for materialized relations; larger store-backed datasets stream or are LRU-evicted (0 = unbounded)")
	scanWindowRows := fs.Int("scan-window-rows", 0, "rows decoded per chunk on the streaming detection path (0 = whole segments)")
	var loads loadFlags
	fs.Var(&loads, "load", "preload a dataset as name=path.csv (repeatable)")
	fs.Parse(os.Args[1:])

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir)
		if err != nil {
			log.Fatalf("scoded-serve: opening store: %v", err)
		}
	}
	srv := server.New(server.Options{
		Workers:        *workers,
		MaxUploadBytes: *maxUpload,
		RequestTimeout: *requestTimeout,
		Store:          st,
		IngestQueue:    *ingestQueue,
		AlertWebhook:   *alertWebhook,
		AlertRetries:   *alertRetries,
		AlertBackoff:   *alertBackoff,
		ResidentBytes:  *residentBytes,
		ScanWindowRows: *scanWindowRows,
	})
	defer srv.Close()
	if st != nil {
		if err := srv.LoadStore(); err != nil {
			log.Fatalf("scoded-serve: restoring store: %v", err)
		}
		names, err := st.Datasets()
		if err != nil {
			log.Fatalf("scoded-serve: %v", err)
		}
		log.Printf("restored %d dataset(s) from %s", len(names), *dataDir)
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("scoded-serve: -load %q: want name=path.csv", spec)
		}
		if st != nil && st.HasDataset(name) {
			log.Printf("dataset %q already in store; skipping -load %s", name, path)
			continue
		}
		rel, err := relation.ReadCSVFile(path)
		if err != nil {
			log.Fatalf("scoded-serve: loading %s: %v", path, err)
		}
		if err := srv.AddDataset(name, rel); err != nil {
			log.Fatalf("scoded-serve: %v", err)
		}
		log.Printf("loaded dataset %q: %d rows, %d columns", name, rel.NumRows(), rel.NumCols())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("scoded-serve listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("scoded-serve: %v", err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("scoded-serve: shutting down (draining for up to %s)", *shutdownTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "scoded-serve: forced shutdown: %v\n", err)
			os.Exit(1)
		}
		srv.Close() // cancel and await in-flight webhook alerts
		log.Printf("scoded-serve: bye")
	}
}
