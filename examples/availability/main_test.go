package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"ipls/internal/dag"
)

// TestRun drives the whole demo: the checkpoint must survive two node
// failures and the repair scan must restore every replication factor, or
// run returns an error. The block count it prints for the checkpoint must
// be the number of blocks dag.Build makes of the same payload.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`checkpoint as a Merkle DAG, root \S+ \((\d+) blocks\)`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no checkpoint block count in the output:\n%s", out.String())
	}
	printed, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := dag.Build(checkpointPayload(), checkpointChunk)
	if err != nil {
		t.Fatal(err)
	}
	if printed != len(blocks) {
		t.Fatalf("printed %d blocks, dag.Build made %d", printed, len(blocks))
	}
}
