// Command paperrepro regenerates the tables and figures of the paper's
// evaluation on the reproduction's substrate.
//
// Usage:
//
//	paperrepro [-scale tiny|small|medium|paper] [-workers N] -figure ID
//	paperrepro -all
//
// IDs: figure1 space figure2 figure3 figure4 figure5 figure6 figure7.
//
// -cpuprofile and -memprofile write pprof profiles of the figure harness,
// so simulation-engine performance work can profile the real measurement
// workload directly (DESIGN.md §8).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"liquidarch/internal/experiments"
	"liquidarch/internal/workload"
)

// main defers to run so profile-flushing defers execute before the
// process exits with run's status code. An interrupt cancels the run's
// context, so a long sweep aborts between measurements instead of dying
// mid-profile.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx))
}

func run(ctx context.Context) int {
	var (
		figure       = flag.String("figure", "", "experiment id to regenerate (figure1..figure7, space)")
		all          = flag.Bool("all", false, "regenerate every table")
		scale        = flag.String("scale", "small", "workload scale: tiny, small, medium, paper")
		workers      = flag.Int("workers", 0, "parallel measurement runs (0 = NumCPU)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile at exit to this file")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
		blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperrepro: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperrepro: memprofile: %v\n", err)
			}
		}()
	}

	// Mutex and block profiles cover the concurrency layers the CPU
	// profile cannot see — engine-pool contention and the measurement
	// fan-out's waits on the shared cache show up here.
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprofile)
	}

	sc, ok := workload.ParseScale(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "paperrepro: unknown scale %q\n", *scale)
		return 2
	}
	runner := experiments.NewRunner(experiments.Options{Scale: sc, Workers: *workers})

	ids := []string{}
	switch {
	case *all:
		ids = experiments.IDs()
	case *figure != "":
		ids = append(ids, *figure)
	default:
		fmt.Fprintln(os.Stderr, "paperrepro: pass -figure ID or -all; IDs:", experiments.IDs())
		return 2
	}

	for _, id := range ids {
		start := time.Now()
		table, err := runner.ByID(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperrepro: %s: %v\n", id, err)
			return 1
		}
		fmt.Println(table)
		fmt.Printf("[%s regenerated in %v at scale %s]\n\n", id, time.Since(start).Round(time.Millisecond), sc)
	}
	return 0
}

// writeProfile dumps the named runtime/pprof profile to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %sprofile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %sprofile: %v\n", name, err)
	}
}
