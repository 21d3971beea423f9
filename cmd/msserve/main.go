// msserve is simulation-as-a-service: a daemon that accepts
// assemble/simulate/trace jobs and batch config sweeps over HTTP/JSON,
// fans them out over the job worker pool, and answers duplicate
// submissions from a content-addressed result cache (in-memory LRU with
// single-flight admission and optional on-disk spill). See docs/serve.md
// for the API.
//
// Serve:
//
//	msserve -addr :8080
//	msserve -addr :8080 -spill /var/cache/msserve -cache 2048 -per-client 4
//
// Submit (a thin client for scripts and the CI smoke test):
//
//	msserve -submit batch.json -addr http://127.0.0.1:8080 -out resp.json
//	msserve -submit batch.json -addr http://127.0.0.1:8080 -expect-all-cached
//
// A request file with a top-level "jobs" or "sweep" field posts to
// /v1/batch, anything else to /v1/jobs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"multiscalar/internal/job"
	"multiscalar/internal/serve"
)

func main() {
	// Serving is batch-shaped work, same as msbench: trade heap headroom
	// for simulator throughput.
	debug.SetGCPercent(400)
	var (
		addr      = flag.String("addr", ":8080", "listen address, or (with -submit) the server base URL")
		spill     = flag.String("spill", "", "spill finished results to this directory (content-addressed; survives restarts)")
		cacheN    = flag.Int("cache", 512, "in-memory result-cache capacity (entries)")
		workers   = flag.Int("workers", 0, "concurrent job executions (default GOMAXPROCS)")
		perClient = flag.Int("per-client", 2, "max concurrently executing jobs per client")

		submit    = flag.String("submit", "", "client mode: POST this JSON request file and print the response")
		out       = flag.String("out", "", "client mode: write the response JSON to this file (default stdout)")
		wait      = flag.Duration("wait", 10*time.Second, "client mode: how long to retry while the server comes up")
		allCached = flag.Bool("expect-all-cached", false, "client mode: exit 1 unless every batch job was answered from cache")
	)
	flag.Parse()

	if *submit != "" {
		if err := runClient(*addr, *submit, *out, *wait, *allCached); err != nil {
			fmt.Fprintln(os.Stderr, "msserve:", err)
			os.Exit(1)
		}
		return
	}

	if *workers > 0 {
		job.SetWorkers(*workers)
	}
	eng := serve.NewLocal(serve.Options{
		CacheEntries:      *cacheN,
		SpillDir:          *spill,
		PerClientInFlight: *perClient,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(eng),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(os.Stderr, "msserve: listening on %s (cache=%d entries, spill=%q)\n", *addr, *cacheN, *spill)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "msserve:", err)
		os.Exit(1)
	}
}

func runClient(base, reqFile, outFile string, wait time.Duration, expectAllCached bool) error {
	body, err := os.ReadFile(reqFile)
	if err != nil {
		return err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(body, &probe); err != nil {
		return fmt.Errorf("request %s is not a JSON object: %w", reqFile, err)
	}
	endpoint := "/v1/jobs"
	_, isBatch := probe["jobs"]
	if _, ok := probe["sweep"]; ok {
		isBatch = true
	}
	if isBatch {
		endpoint = "/v1/batch"
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimRight(base, "/") + endpoint

	resp, err := postWithRetry(url, body, wait)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, data, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(data)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", endpoint, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if isBatch {
		var br serve.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			return fmt.Errorf("decoding batch response: %w", err)
		}
		fmt.Fprintf(os.Stderr, "msserve: %d jobs, %d cached, %d executed, %d errors\n",
			br.Count, br.Cached, br.Executed, br.Errors)
		if br.Errors > 0 {
			return fmt.Errorf("%d of %d jobs failed", br.Errors, br.Count)
		}
		if expectAllCached && br.Cached != br.Count {
			return fmt.Errorf("expected a fully cached batch, got %d/%d cached (%d executed)",
				br.Cached, br.Count, br.Executed)
		}
	}
	return nil
}

// postWithRetry retries connection failures (a daemon still binding its
// socket) until the deadline; HTTP-level errors return immediately.
func postWithRetry(url string, body []byte, wait time.Duration) (*http.Response, error) {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
		if err == nil {
			return resp, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(200 * time.Millisecond)
	}
}
