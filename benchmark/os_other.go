//go:build !unix

package main

// peakRSSMB is not measurable without getrusage(2).
func peakRSSMB() float64 { return 0 }

// residentMB likewise.
func residentMB() float64 { return 0 }

// lockRun cannot lock without flock(2); runs are on their honour.
func lockRun(string) (release func(), err error) { return func() {}, nil }
