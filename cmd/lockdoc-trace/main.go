// Command lockdoc-trace runs the instrumented simulated kernel under the
// benchmark mix (phase 1 of the LockDoc pipeline) and writes the binary
// event trace to a file.
//
// Usage:
//
//	lockdoc-trace -o trace.lkdc [-seed N] [-scale N] [-clock] [-genome FILE] [-format 2]
//
// With -clock, the Sec. 4 clock-counter example is traced instead of the
// full benchmark mix. With -genome, a fuzzer corpus genome (see
// internal/workload/testdata/corpus) is decoded and replayed — the
// deterministic bridge from a committed corpus entry to a trace file.
// -format selects the wire format: 2 (default) emits sync markers and
// per-block checksums, 1 the legacy unframed stream.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"lockdoc/internal/cli"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

func main() { cli.Main("lockdoc-trace", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fl := cli.Flags("lockdoc-trace", stderr)
	out := fl.String("o", "trace.lkdc", "output trace file")
	seed := fl.Int64("seed", 42, "deterministic run seed")
	scale := fl.Int("scale", 1, "workload scale factor")
	clock := fl.Bool("clock", false, "trace the clock-counter example instead of the benchmark mix")
	genomePath := fl.String("genome", "", "replay a fuzzer corpus genome file instead of the benchmark mix")
	iterations := fl.Int("iterations", 1000, "clock example iterations")
	format := fl.Int("format", int(trace.FormatV2), "wire format version to write (1 or 2)")
	var obsf cli.ObsFlags
	obsf.Register(fl)
	if err := cli.Parse(fl, args); err != nil {
		return err
	}
	if *format != int(trace.FormatV1) && *format != int(trace.FormatV2) {
		return fmt.Errorf("unsupported -format %d (want 1 or 2)", *format)
	}
	if ctx, err = obsf.Start(ctx, stderr); err != nil {
		return err
	}
	defer func() {
		if e := obsf.Finish(stderr); err == nil {
			err = e
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w, err := trace.NewWriterOptions(f, trace.WriterOptions{Version: *format})
	if err != nil {
		f.Close()
		return err
	}

	finish := func() error { return f.Close() }

	if *genomePath != "" {
		data, err := os.ReadFile(*genomePath)
		if err != nil {
			f.Close()
			return err
		}
		g, err := workload.DecodeGenome(data)
		if err != nil {
			f.Close()
			return fmt.Errorf("decoding %s: %w", *genomePath, err)
		}
		sys, err := workload.RunGenome(w, g)
		if err != nil {
			f.Close()
			return err
		}
		if err := finish(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "genome %s: %d events -> %s\n", *genomePath, sys.K.EventCount(), *out)
		return nil
	}

	if *clock {
		res, err := workload.RunClockExample(w, *seed, *iterations)
		if err != nil {
			f.Close()
			return err
		}
		if err := finish(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "clock example: %d iterations, %d rollovers, %d events -> %s\n",
			res.Iterations, res.Rollovers, res.Events, *out)
		return nil
	}

	sys, err := workload.Run(w, workload.Options{Seed: *seed, Scale: *scale, PreemptEvery: 97})
	if err != nil {
		f.Close()
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchmark mix (seed %d, scale %d): %d events -> %s\n",
		*seed, *scale, sys.K.EventCount(), *out)
	return nil
}
