package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRotatingFileUnboundedByDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	w, err := NewRotatingFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 4096) + "\n"
	for i := 0; i < 10; i++ {
		if _, err := w.Write([]byte(big)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 10*len(big) {
		t.Fatalf("file size = %d, want %d", len(data), 10*len(big))
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatal("rotation file exists with cap off")
	}
}

func TestRotatingFileCapsAtLineBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	w, err := NewRotatingFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.Repeat("y", 255) + "\n" // 256 bytes per line
	// Feed lines split mid-line across Write calls, the way bufio
	// flushes split JSON documents.
	var all []byte
	for i := 0; i < 40; i++ {
		all = append(all, line...)
	}
	for off := 0; off < len(all); off += 100 {
		end := off + 100
		if end > len(all) {
			end = len(all)
		}
		if _, err := w.Write(all[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + ".1"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[len(data)-1] != '\n' {
			t.Fatalf("%s does not end at a line boundary", p)
		}
		for _, l := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			if len(l) != 255 {
				t.Fatalf("%s holds a torn line of %d bytes", p, len(l))
			}
		}
	}
}

func TestRotatingFileSpanJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	rf, err := NewRotatingFile(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSpanJSONLWriter(rf)
	base := time.Unix(0, 0).UTC()
	for i := 0; i < 5; i++ {
		w.EmitSpan(Span{
			Name: "upload", Actor: "trainer-00",
			Context: SpanContext{Session: "s", SpanID: NewSpanID()},
			Start:   base, End: base.Add(time.Second),
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := ReadSpanJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 || spans[0].Name != "upload" {
		t.Fatalf("spans = %+v", spans)
	}
}
