// Command mdxserve exposes the simulator as a service: everything the CLIs
// can do — single experiments, sweeps, fault schedules, full resilience
// campaigns — submitted as jobs over HTTP and executed on a bounded worker
// pool honoring one global -parallel budget. A job's report artifact is
// byte-identical to the stdout of the equivalent mdxbench/mdxfault run, at
// any pool width: the repository's determinism guarantee extended across
// the network boundary.
//
//	mdxserve -addr :8080 -workers 2 -parallel 4 -queue 64
//
// Endpoints: POST /jobs, GET /jobs/{id}, GET /jobs/{id}/artifact,
// GET /jobs/{id}/events (JSONL stream), DELETE /jobs/{id}, GET /healthz
// (liveness), GET /readyz (readiness), GET /metrics. SIGTERM/SIGINT drains
// gracefully: running and queued jobs finish, new submissions get 503.
//
// With -state-dir the server is crash-safe: job records, completed campaign
// cells, fault runs' park records (a cycle and its state hash) and finished
// artifacts persist there, and SIGTERM stops FAST instead of draining —
// running jobs park, and the next mdxserve over the same directory
// re-executes them to byte-identical artifacts, checking each fault run's
// state hash at its parked cycle.
//
// Several mdxserve processes may share one -state-dir as a fleet: give
// each a distinct -worker id. Leases arbitrate which process runs each
// execution, finished artifacts dedupe fleet-wide by canonical spec hash,
// a worker that dies (SIGKILL, power loss) has its in-flight executions
// taken over by peers within one -lease-ttl — re-executed to byte-identical
// artifacts — and a spec that kills
// -poison-after owners in a row is quarantined with a classified error
// instead of crash-looping the fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sr2201/internal/cliutil"
	"sr2201/internal/jobs"
	"sr2201/internal/sweep"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:0 picks a free port, printed on stderr)")
		queue    = flag.Int("queue", 64, "bounded job-queue depth (full queue sheds with 429)")
		workers  = flag.Int("workers", 2, "concurrent job executions")
		parallel = flag.Int("parallel", sweep.DefaultParallel(), "global sweep-worker budget shared by all running jobs")
		timeout  = flag.Duration("job-timeout", 0, "per-job deadline (0 = none)")
		stateDir = flag.String("state-dir", "", "crash-safe state directory: jobs persist, park, and resume across restarts; shareable by a fleet")
		workerID = flag.String("worker", "w0", "fleet member id (distinct per process sharing a -state-dir)")
		leaseTTL = flag.Duration("lease-ttl", 5*time.Second, "lease freshness window: a peer steals an execution whose owner has not renewed for this long")
		poison   = flag.Int("poison-after", 3, "quarantine a spec after this many owners died running it (-1 disables)")
	)
	flag.Parse()

	worker, err := cliutil.ParseWorkerID(*workerID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdxserve:", err)
		os.Exit(2)
	}
	// MDXSERVE_FAILPOINT=<hash>@<cycle> is the chaos harness's deterministic
	// owner-death hook: the process os.Exits mid-run, leaving exactly the
	// state a SIGKILLed owner leaves.
	fpHash, fpCycle, err := cliutil.ParseFailpoint(os.Getenv("MDXSERVE_FAILPOINT"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdxserve:", err)
		os.Exit(2)
	}

	m, err := jobs.OpenManager(jobs.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		Parallel:       *parallel,
		JobTimeout:     *timeout,
		StateDir:       *stateDir,
		WorkerID:       worker,
		LeaseTTL:       *leaseTTL,
		PoisonAfter:    *poison,
		FailpointHash:  fpHash,
		FailpointCycle: fpCycle,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdxserve:", err)
		os.Exit(1)
	}

	// Listen before serving so ":0" resolves to a real port the harness (or
	// an operator script) can scrape from the banner line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdxserve:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: jobs.NewServer(m)}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mdxserve: listening on %s (worker=%s workers=%d parallel=%d queue=%d)\n",
		ln.Addr(), worker, *workers, *parallel, *queue)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mdxserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	if *stateDir != "" {
		// Persisted state makes draining unnecessary: interrupt running jobs
		// (they park and release their leases) and let the next boot — or a
		// fleet peer — resume them.
		fmt.Fprintln(os.Stderr, "mdxserve: stopping (parking running jobs for resume)")
		m.Stop()
	} else {
		fmt.Fprintln(os.Stderr, "mdxserve: draining (finishing running jobs, refusing new ones)")
		m.Drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mdxserve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mdxserve: drained")
}
