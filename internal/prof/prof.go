// Package prof gives every command the same -cpuprofile and -memprofile
// flags. Profiles go only to the files named, so a command prints the
// same bytes with profiling on or off; read them with go tool pprof.
package prof

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is one command's profiling request and state.
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File
	done             bool
}

// Register adds -cpuprofile and -memprofile to fs; call it before
// fs.Parse.
func Register(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.memPath, "memprofile", "", "write an allocation profile, taken at exit, to this file (go tool pprof)")
	return p
}

// Start begins the CPU profile if -cpuprofile was given.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

// Stop ends the CPU profile and writes the allocation profile. Only the
// first call acts, so a command may call it on every exit path.
func (p *Profiles) Stop() error {
	if p.done {
		return nil
	}
	p.done = true
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
	}
	if p.memPath != "" {
		errs = append(errs, writeAllocs(p.memPath))
	}
	return errors.Join(errs...)
}

// writeAllocs writes the allocation profile as go test -memprofile does,
// after a GC so the in-use figures are current.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
