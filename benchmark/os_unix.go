//go:build unix

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// peakRSSMB reads the process's peak resident set from getrusage(2).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6 // bytes there, kilobytes elsewhere
	}
	return float64(ru.Maxrss) / 1e3
}

// residentMB reads the process's current resident set from procfs; without
// procfs the high-water mark is the best there is.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	var size, resident int64
	if err == nil {
		_, err = fmt.Sscan(string(data), &size, &resident)
	}
	if err != nil {
		return peakRSSMB()
	}
	return float64(resident*int64(os.Getpagesize())) / 1e6
}

// lockRun takes the lock that keeps two measuring processes from sharing
// the machine's cores through one output directory. The lock dies with the
// process, so a killed run leaves nothing to clean up.
func lockRun(outDir string) (release func(), err error) {
	f, err := os.OpenFile(filepath.Join(outDir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("another benchmark run holds %s: refusing to measure two workloads at once", f.Name())
	}
	return func() { f.Close() }, nil
}
