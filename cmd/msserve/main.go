// msserve is simulation-as-a-service: a daemon that accepts
// assemble/simulate/trace jobs over HTTP/JSON, one job per request, runs
// them on the job worker pool, and answers duplicate submissions from a
// content-addressed result cache (in-memory LRU with single-flight
// admission and optional on-disk spill). A config sweep is one POST to
// /v1/jobs per configuration. See docs/serve.md for the API.
//
//	msserve -addr :8080
//	msserve -addr :8080 -spill /var/cache/msserve -cache 2048 -per-client 4
//	curl -d '{"job":{"workload":"example","preset":{"units":4}}}' http://127.0.0.1:8080/v1/jobs
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"multiscalar/internal/job"
	"multiscalar/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		spill     = flag.String("spill", "", "spill finished results to this directory (content-addressed; survives restarts)")
		cacheN    = flag.Int("cache", 512, "in-memory result-cache capacity (entries)")
		workers   = flag.Int("workers", 0, "concurrent job executions (default GOMAXPROCS)")
		perClient = flag.Int("per-client", 2, "max concurrently executing jobs per client")
	)
	flag.Parse()

	if *workers > 0 {
		job.SetWorkers(*workers)
	}
	eng := serve.NewLocal(serve.Options{
		CacheEntries:      *cacheN,
		SpillDir:          *spill,
		PerClientInFlight: *perClient,
	})
	srv := &http.Server{
		Handler:           serve.NewHandler(eng),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Print the address bound, not the flag: -addr 127.0.0.1:0 names its port here.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "msserve: listening on %s (cache=%d entries, spill=%q)\n", ln.Addr(), *cacheN, *spill)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "msserve:", err)
		os.Exit(1)
	}
}
