// Command tracegen acquires a set of power traces for any registered
// cipher target (-target; default AES) through the simulated
// measurement chain and writes them — with their plaintexts as
// auxiliary records — to a binary trace-set file that other tools (or
// external SCA software) can consume, and/or directly into a chunked
// on-disk trace store (-store) ready for out-of-core analysis.
//
// Synthesis fans out across all cores (-workers) while the outputs are
// written strictly in trace order with bounded memory: finished traces
// stream to disk as their turn comes up, so -n is limited by disk, not
// RAM. The output is byte-identical for any worker count.
//
// The -o file appears atomically: traces stream to a temp file that is
// fsynced and renamed over the target only after every byte (and the
// close) succeeded, so a crashed or failed run can never leave a
// plausible-looking truncated set behind. The -store directory uses the
// trace store's own crash discipline (chunk-wise commits, sealed
// manifest).
//
// Usage:
//
//	tracegen [-target T] [-n N] [-rounds R] [-avg A] [-noise] [-workers W] [-replay auto|simulate] [-o traces.bin] [-store DIR] [-store-chunk N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/attack"
	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/osnoise"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses argv, acquires the traces and writes them. It returns the
// process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	const tool = "tracegen"
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)

	var ef cliutil.EngineFlags
	ef.Register(fs)
	ef.RegisterSeed(fs, 1)
	ef.RegisterReplay(fs)
	var tf cliutil.TargetFlags
	tf.RegisterTarget(fs)
	n := fs.Int("n", 1000, "number of traces")
	rounds := fs.Int("rounds", 1, "simulated cipher rounds")
	avg := fs.Int("avg", 4, "per-acquisition averaging")
	noisy := fs.Bool("noise", false, "acquire under the loaded-Linux environment")
	out := fs.String("o", "traces.bin", "output trace-set file (\"\" to skip)")
	storeDir := fs.String("store", "", "also write a chunked trace store into this directory")
	storeChunk := fs.Int("store-chunk", 0, "traces per store chunk (0: default)")
	keyHex := fs.String("key", "", "attacked key in hex (default: the target's default key)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	fail := func(msg string) int {
		fmt.Fprintf(stderr, "%s: %s\n", tool, msg)
		return 1
	}
	if err := ef.Finish(); err != nil {
		return fail(err.Error())
	}
	info, err := tf.FinishTarget()
	if err != nil {
		return fail(err.Error())
	}
	switch {
	case *n < 0:
		return fail(fmt.Sprintf("-n must be >= 0, got %d", *n))
	case *rounds < 1 || *rounds > info.MaxRounds:
		return fail(fmt.Sprintf("-rounds must be in 1..%d for %s, got %d", info.MaxRounds, info.Name, *rounds))
	case *avg < 1:
		return fail(fmt.Sprintf("-avg must be >= 1, got %d", *avg))
	case *out == "" && *storeDir == "":
		return fail("nothing to write: give -o, -store or both")
	case *storeChunk < 0:
		return fail(fmt.Sprintf("-store-chunk must be >= 0, got %d", *storeChunk))
	}

	key, err := info.ParseKey(*keyHex)
	if err != nil {
		return fail(err.Error())
	}

	opt := attack.DefaultFig3Options()
	opt.Rounds, opt.Averages, opt.Synth = *rounds, *avg, ef.Mode
	acq, err := attack.NewAcquisition(tf.Target, key, opt)
	if err != nil {
		return fail(err.Error())
	}
	samples := acq.Samples
	env := osnoise.Quiet()
	if *noisy {
		env = osnoise.LoadedLinux()
	}

	// The -o file streams through a temp path and lands by rename only
	// after flush, fsync and close all succeeded — a crash or a full
	// disk leaves the previous file (or nothing), never a torn set.
	var (
		f   *os.File
		bw  *bufio.Writer
		sw  *trace.SetWriter
		tmp string
	)
	if *out != "" {
		tmp = *out + ".tmp"
		f, err = os.Create(tmp)
		if err != nil {
			return fail(err.Error())
		}
		defer os.Remove(tmp) // no-op after the final rename
		bw = bufio.NewWriter(f)
		sw, err = trace.NewSetWriter(bw, *n, samples)
	}
	var stw *tracestore.Writer
	if err == nil && *storeDir != "" {
		stw, err = tracestore.Create(*storeDir, tracestore.Options{
			Samples: samples, AuxLen: info.BlockSize, ChunkTraces: *storeChunk,
		})
		if err == nil {
			defer stw.Close() // after Commit: no-op; on error: recoverable prefix
		}
	}
	emit := func(i int, tr trace.Trace, aux []byte) error {
		if sw != nil {
			if err := sw.Append(tr, aux); err != nil {
				return err
			}
		}
		if stw != nil {
			return stw.Append(tr, aux)
		}
		return nil
	}

	// -n 0 is a valid request for a header-only (empty) set. Every trace
	// draws from its private stream in the same order on every synthesis
	// path, so the file is byte-identical for every -lanes, -workers and
	// -replay value.
	if err == nil && *n > 0 {
		spec := engine.Spec{Traces: *n, Samples: samples, Seed: ef.Seed, Emit: emit}
		_, err = engine.RunBatched(ef.Config, spec, acq.BatchGen(env, nil))
	}
	if err == nil && sw != nil {
		err = sw.Close()
	}
	if err == nil && bw != nil {
		err = bw.Flush()
	}
	if err == nil && f != nil {
		// Durability before visibility: fsync, then a checked close (a
		// buffered-write failure can surface only here), then the rename
		// that makes the set exist.
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, *out)
		}
	}
	if err == nil && stw != nil {
		err = stw.Commit()
	}
	if err != nil {
		return fail(err.Error())
	}
	if sw != nil {
		fmt.Fprintf(stdout, "wrote %d traces x %d samples (%d bytes) to %s\n",
			*n, samples, sw.Written(), *out)
	}
	if stw != nil {
		fmt.Fprintf(stdout, "committed %d traces x %d samples to store %s\n", *n, samples, *storeDir)
	}
	fmt.Fprintf(stdout, "clock %g MHz, %d samples/cycle; aux record = %d-byte plaintext\n",
		attack.ClockMHz, opt.Model.SamplesPerCycle, info.BlockSize)
	return 0
}
