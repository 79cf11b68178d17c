package cli

import (
	"context"
	"flag"
	"io"
	"os"
	"strings"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/obs"
)

// SweepFlags is the flag group the sweep commands (sst-dse, sst-net)
// share on top of -cache*: worker count, journal/resume, the two
// observability outputs and the host profiles, with the cache and the
// collectors they imply.
type SweepFlags struct {
	*CacheFlags
	*ProfileFlags
	workers              *int
	journal              *string
	resume               *bool
	metricsOut, traceOut *string

	cache *cache.Cache
	cols  []*obs.SweepCollector
}

// RegisterSweepFlags declares the group on fs. cacheHelp and unit are
// RegisterCacheFlags'; the last word of unit ("points", "cells") names
// what the journal records, and traced what -trace-out draws.
func RegisterSweepFlags(fs *flag.FlagSet, cacheHelp, unit, traced string) *SweepFlags {
	many := unit[strings.LastIndexByte(unit, ' ')+1:]
	one := strings.TrimSuffix(many, "s")
	return &SweepFlags{
		CacheFlags:   RegisterCacheFlags(fs, cacheHelp, unit),
		ProfileFlags: RegisterProfileFlags(fs),
		workers:      fs.Int("j", 0, "concurrent sweep workers (0 = GOMAXPROCS)"),
		journal:      fs.String("journal", "", "journal completed "+unit+" to this JSONL file (fsync'd per "+one+")"),
		resume:       fs.Bool("resume", false, "with -journal: restore completed "+many+" instead of re-running them"),
		metricsOut:   fs.String("metrics-out", "", "write per-point sweep metrics JSON to this file"),
		traceOut:     fs.String("trace-out", "", "write a host-timeline Chrome trace of the "+traced+" to this file"),
	}
}

// Check rejects flag combinations that are configuration errors.
func (f *SweepFlags) Check() error {
	if *f.resume && *f.journal == "" {
		return Configf("-resume needs -journal")
	}
	return nil
}

// Options opens the result cache, starts any -cpuprofile and returns the
// sweep options the parsed flags describe. Finish closes what it opened.
func (f *SweepFlags) Options(ctx context.Context) (core.SweepOptions, error) {
	if err := f.Check(); err != nil {
		return core.SweepOptions{}, err
	}
	var err error
	if f.cache, err = f.Open(); err != nil {
		return core.SweepOptions{}, err
	}
	if err := f.Start(); err != nil {
		return core.SweepOptions{}, err
	}
	return core.SweepOptions{
		Workers: *f.workers, Context: ctx,
		Journal: *f.journal, Resume: *f.resume, Cache: f.cache,
	}, nil
}

// Observe returns opts with a new collector attached when -metrics-out or
// -trace-out asked for one. Each sweep gets its own: point indices are
// per-sweep.
func (f *SweepFlags) Observe(opts core.SweepOptions) core.SweepOptions {
	if *f.metricsOut != "" || *f.traceOut != "" {
		col := &obs.SweepCollector{}
		f.cols = append(f.cols, col)
		opts.Metrics = col
	}
	return opts
}

// Finish ends a sweep command: it stops the host profiles and writes them,
// writes the observed sweeps' per-point metrics (a JSON array when there
// were several) followed by the cache's RunReport to -metrics-out and the
// first sweep's host timeline to -trace-out, prints the cache summary and
// closes the cache. It returns err, or else the first error of its own.
func (f *SweepFlags) Finish(prog string, err error) error {
	if perr := f.Stop(); err == nil {
		err = perr
	}
	if werr := f.writeObs(); err == nil {
		err = werr
	}
	if f.cache != nil {
		printCacheSummary(prog, f.cache)
		if cerr := f.cache.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (f *SweepFlags) writeObs() error {
	if len(f.cols) == 0 {
		return nil
	}
	if *f.metricsOut != "" {
		if err := WriteFile(*f.metricsOut, func(w io.Writer) error {
			results := make([]core.Result, len(f.cols))
			for i, col := range f.cols {
				results[i] = col
			}
			if err := core.WriteResults(w, core.FormatJSON, results...); err != nil {
				return err
			}
			if f.cache == nil {
				return nil
			}
			rcol := obs.NewCollector()
			rcol.AttachCache(f.cache)
			return rcol.Report().WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	if *f.traceOut != "" {
		return WriteFile(*f.traceOut, f.cols[0].WriteChromeJSON)
	}
	return nil
}

// WriteFile creates path and streams write into it.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
