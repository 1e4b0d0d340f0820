// Package prof wires the standard profiling and tracing outputs into
// the command-line tools: CPU profile, heap profile, and runtime trace.
// The simulator's hot loop is allocation-free by design, so these are
// the instruments used to keep it that way — see DESIGN.md ("Event
// engine internals") for the benchmarking workflow they support.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the standard profiling destinations. Register them with
// AddFlags before flag.Parse, then bracket main's work between Start
// and the stop function it returns.
type Flags struct {
	CPUProfile   string
	MemProfile   string
	Trace        string
	BlockProfile string
	MutexProfile string
}

// AddFlags registers -cpuprofile, -memprofile, -trace, -blockprofile
// and -mutexprofile on the default flag set. The block and mutex
// profiles are the instruments for the parallel engine's barrier and
// mailbox contention; they carry a sampling cost, so the runtime rates
// are only raised when the flags are set.
func (f *Flags) AddFlags() { f.AddFlagsTo(flag.CommandLine) }

// AddFlagsTo is AddFlags on an explicit flag set, for CLIs that parse
// a private one.
func (f *Flags) AddFlagsTo(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&f.BlockProfile, "blockprofile", "", "write a goroutine blocking profile to this file on exit")
	fs.StringVar(&f.MutexProfile, "mutexprofile", "", "write a mutex contention profile to this file on exit")
}

// Start begins the requested CPU profile and trace. It returns a stop
// function that must run before the process exits (defer it in main);
// the stop function also writes the heap profile, after a GC so the
// numbers reflect live steady-state memory rather than garbage.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
	}
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if f.Trace != "" {
		traceFile, err = os.Create(f.Trace)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	if f.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if f.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		cleanup()
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			mf.Close()
		}
		writeLookup(f.BlockProfile, "block")
		writeLookup(f.MutexProfile, "mutex")
	}, nil
}

// writeLookup dumps one of the runtime's named profiles to path.
func writeLookup(path, profile string) {
	if path == "" {
		return
	}
	p := pprof.Lookup(profile)
	if p == nil {
		fmt.Fprintf(os.Stderr, "%sprofile: runtime profile missing\n", profile)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%sprofile: %v\n", profile, err)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%sprofile: %v\n", profile, err)
	}
	f.Close()
}
