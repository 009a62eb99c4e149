package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SpanJSONLWriter streams completed spans to a writer as JSON Lines, one
// span per line, in bounded memory. The first write error is retained and
// every later span is dropped and counted, so a failing writer never
// blocks the protocol. Safe for concurrent emitters.
type SpanJSONLWriter struct {
	mu      sync.Mutex
	buf     *bufio.Writer
	emitted int
	failed  int
	err     error
}

var _ SpanSink = (*SpanJSONLWriter)(nil)

// NewSpanJSONLWriter wraps w in a buffered span JSONL sink. Call Flush
// (or Close) before reading what was written.
func NewSpanJSONLWriter(w io.Writer) *SpanJSONLWriter {
	return &SpanJSONLWriter{buf: bufio.NewWriter(w)}
}

// EmitSpan writes the span as one JSON line.
func (w *SpanJSONLWriter) EmitSpan(s Span) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.failed++
		return
	}
	line, err := json.Marshal(s)
	if err == nil {
		_, err = w.buf.Write(append(line, '\n'))
	}
	if err != nil {
		w.err = err
		w.failed++
		return
	}
	w.emitted++
}

// Flush forces buffered lines to the underlying writer.
func (w *SpanJSONLWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.buf.Flush()
}

// Close flushes the sink. It does not close the underlying writer (the
// caller owns it).
func (w *SpanJSONLWriter) Close() error { return w.Flush() }

// Emitted returns how many spans were successfully encoded.
func (w *SpanJSONLWriter) Emitted() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.emitted
}

// Dropped returns how many spans were lost to write errors.
func (w *SpanJSONLWriter) Dropped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// ReadSpanJSONL parses a span JSONL stream produced by SpanJSONLWriter.
// Blank lines are skipped; a malformed line aborts with an error naming
// it. Streams concatenated from several nodes parse fine — spans need no
// global order.
func ReadSpanJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var spans []Span
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", lineNo, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read spans: %w", err)
	}
	return spans, nil
}
