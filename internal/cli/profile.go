package cli

// Profiling support for the campaign CLIs: shrun exposes
// -cpuprofile/-memprofile flags that bracket campaign execution with
// pprof collection, so a slow campaign can be profiled without
// rebuilding anything (go tool pprof <binary> <file>).

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler writes pprof profiles around a campaign run. The zero
// value is inert; create with StartProfiles.
type Profiler struct {
	prog    string
	cpuFile *os.File
	memPath string
}

// StartProfiles begins CPU profiling into cpuPath (empty for none)
// and remembers memPath for a heap profile at Stop (empty for none).
// Errors are reported on stderr and disable the affected profile
// rather than failing the campaign.
func StartProfiles(prog, cpuPath, memPath string) *Profiler {
	p := &Profiler{prog: prog, memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", prog, err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", prog, err)
			f.Close()
		} else {
			p.cpuFile = f
		}
	}
	return p
}

// Stop finishes the CPU profile and writes the heap profile. Like
// Campaign.Close it must be called on every exit path (os.Exit skips
// defers), and calling it twice is safe.
func (p *Profiler) Stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", p.prog, err)
		} else {
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", p.prog, err)
			}
			f.Close()
		}
		p.memPath = ""
	}
}
