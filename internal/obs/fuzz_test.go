package obs

import (
	"testing"
	"time"
)

// FuzzBreakdown decodes arbitrary bytes into a span forest — overlapping
// intervals, gaps, dangling parents, self-parents, multiple traces — and
// checks the invariants Breakdown promises: the critical-path segments
// tile [start, end] in chronological order, per-phase durations are
// never negative, and they always sum exactly to the iteration latency.
func FuzzBreakdown(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 1, 5, 1, 1, 6, 12, 0, 2})
	f.Add([]byte{3, 3, 9, 0, 0, 0, 0, 1})
	f.Add([]byte{255, 0, 255, 255, 7, 7, 2, 3, 0, 200, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each 4-byte record is one span: start, end (swapped if needed,
		// so spans are well-formed), parent selector, name selector. The
		// parent selector picks an earlier span, the synthetic missing ID
		// "ghost", or none; the high bit routes the span to a second trace.
		const rec = 4
		n := len(data) / rec
		if n == 0 || n > 64 {
			return
		}
		base := time.Unix(0, 0).UTC()
		names := []string{"upload", "aggregate", "merge_download", "sync_wait"}
		ids := make([]string, n)
		spans := make([]Span, n)
		for i := 0; i < n; i++ {
			lo, hi := int64(data[i*rec]), int64(data[i*rec+1])
			if hi < lo {
				lo, hi = hi, lo
			}
			psel := data[i*rec+2]
			nsel := data[i*rec+3]
			iter := 0
			if psel&0x80 != 0 {
				iter = 1
			}
			ids[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			parent := ""
			switch {
			case psel&0x7f == 0x7f:
				parent = "ghost" // present nowhere: treated as a root
			case psel&0x7f != 0 && i > 0:
				parent = ids[int(psel&0x7f)%i]
			}
			spans[i] = Span{
				Name:  names[int(nsel)%len(names)],
				Actor: "node",
				Context: SpanContext{
					Session: "fuzz", Iter: iter,
					SpanID: ids[i], Parent: parent,
				},
				Start: base.Add(time.Duration(lo) * time.Millisecond),
				End:   base.Add(time.Duration(hi) * time.Millisecond),
				Bytes: int64(nsel),
			}
		}

		for _, b := range BreakdownTrace(spans) {
			if b.Latency < 0 {
				t.Fatalf("negative latency %v", b.Latency)
			}
			// Segments tile [Start, End] exactly, in order.
			cursor := b.Start
			for i, seg := range b.Path {
				if !seg.Start.Equal(cursor) {
					t.Fatalf("segment %d starts at %v, want %v (gap or overlap)", i, seg.Start, cursor)
				}
				if seg.End.Before(seg.Start) {
					t.Fatalf("segment %d ends before it starts: %+v", i, seg)
				}
				cursor = seg.End
			}
			if len(b.Path) > 0 && !cursor.Equal(b.End) {
				t.Fatalf("path ends at %v, want %v", cursor, b.End)
			}
			// Phase durations are non-negative and sum to the latency.
			var sum time.Duration
			for _, p := range b.Phases {
				if p.Duration < 0 {
					t.Fatalf("negative phase duration: %+v", p)
				}
				sum += p.Duration
			}
			if sum != b.Latency {
				t.Fatalf("phase sum %v != latency %v (spans=%d)", sum, b.Latency, b.Spans)
			}
		}
	})
}
