package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags is -cpuprofile/-memprofile: host profiles of a whole
// command run in the format `go tool pprof` reads, the same two files
// `go test -cpuprofile/-memprofile` writes.
type ProfileFlags struct {
	cpuPath, memPath *string
	cpu              *os.File
}

// RegisterProfileFlags declares -cpuprofile and -memprofile on fs.
func RegisterProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	return &ProfileFlags{
		cpuPath: fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		memPath: fs.String("memprofile", "", "write an allocation profile to this file when the run ends"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. A file that
// cannot be created is a configuration error.
func (p *ProfileFlags) Start() error {
	if *p.cpuPath == "" || p.cpu != nil {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return Configf("-cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return Configf("-cpuprofile: %v", err)
	}
	p.cpu = f
	return nil
}

// Stop ends CPU profiling and writes the allocation profile, if asked
// for. Call it once, before the process exits.
func (p *ProfileFlags) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if *p.memPath != "" {
		runtime.GC() // settle the statistics on everything the run allocated
		errs = append(errs, WriteFile(*p.memPath, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}))
	}
	return errors.Join(errs...)
}
