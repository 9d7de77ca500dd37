// Command warplda-worker runs one worker of a multi-node distributed
// training cluster (internal/dist). A worker is a pure compute node:
// it never reads the corpus — it receives its token shard, routing
// tables, and per-pass global counts from the coordinator (warplda-train
// -algo distributed -listen) and runs the same phase bodies as the
// in-process sampler, shipping finished token blocks back through the
// coordinator.
//
// Workers keep no durable state. Killing one (even kill -9) and
// starting a fresh one is the supported recovery procedure: the
// coordinator reforms the cluster from its newest committed checkpoint
// and hands the newcomer a repartitioned shard. A worker that loses its
// coordinator retries with bounded exponential backoff and re-registers
// idempotently under its -id when the coordinator returns.
//
// Usage:
//
//	warplda-train -algo distributed -threads 2 -listen :7077 -checkpoint-dir ckpt/ -corpus c.uci
//	warplda-worker -coordinator host:7077   # on each worker machine
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"warplda/internal/dist"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		coord   = flag.String("coordinator", "", "coordinator host:port (required)")
		id      = flag.String("id", "", "stable worker identity across reconnects (default: hostname-pid)")
		dialTO  = flag.Duration("dial-timeout", 5*time.Second, "per-attempt connect timeout")
		backoff = flag.Duration("retry-backoff", 200*time.Millisecond, "initial reconnect backoff (doubles up to -max-backoff)")
		maxBack = flag.Duration("max-backoff", 3*time.Second, "reconnect backoff cap")
		retries = flag.Int("max-retries", 60, "consecutive failed connects before giving up")
		readTO  = flag.Duration("read-timeout", 60*time.Second, "per-frame read deadline; expiry means the coordinator is gone and triggers a reconnect")
		writeTO = flag.Duration("write-timeout", 30*time.Second, "per-frame write deadline")
	)
	flag.Parse()

	if *coord == "" {
		fmt.Fprintln(os.Stderr, "warplda-worker: -coordinator is required")
		flag.Usage()
		return 2
	}
	wid := *id
	if wid == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		wid = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	err := dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator:  *coord,
		ID:           wid,
		DialTimeout:  *dialTO,
		RetryBackoff: *backoff,
		MaxBackoff:   *maxBack,
		MaxRetries:   *retries,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		Logf:         log.Printf,
	})
	switch {
	case err == nil:
		log.Printf("worker %s: run complete", wid)
		return 0
	case ctx.Err() != nil:
		log.Printf("worker %s: interrupted", wid)
		return 1
	default:
		fmt.Fprintf(os.Stderr, "warplda-worker: %v\n", err)
		return 1
	}
}
