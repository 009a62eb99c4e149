package main

import "testing"

// TestRun drives the whole demo: the checkpoint must survive two node
// failures and the repair scan must restore every replication factor, or
// run returns an error.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
