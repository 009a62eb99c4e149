package obs

import (
	"fmt"
	"os"
	"sync"
)

// RotatingFile is an io.WriteCloser for append-only line-oriented sinks
// (JSONL spans and traces) that caps file growth: when the current file
// would exceed maxBytes it is renamed to path+".1" (replacing any
// previous rotation) and a fresh file is started. Long-lived daemon runs
// therefore hold at most ~2×maxBytes of sink output on disk.
//
// Rotation only happens at line boundaries. The upstream writers go
// through bufio, whose flushes can split a JSON line across Write calls,
// so RotatingFile buffers any trailing partial line internally and only
// counts and rotates around complete lines — both the rotated and the
// live file always end with a full JSON document.
type RotatingFile struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	maxBytes int64
	size     int64
	partial  []byte // trailing bytes of an incomplete line
}

// NewRotatingFile creates (truncating) path. maxBytes <= 0 disables
// rotation — the file grows without bound, exactly like os.Create.
func NewRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &RotatingFile{f: f, path: path, maxBytes: maxBytes}, nil
}

// Write appends p, rotating before complete lines that would push the
// current file past the cap.
func (w *RotatingFile) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.maxBytes <= 0 {
		n, err := w.f.Write(p)
		w.size += int64(n)
		return n, err
	}
	buf := append(w.partial, p...)
	// Split off the trailing partial line; everything before cut is
	// whole lines and safe to rotate around.
	cut := -1
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i] == '\n' {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		w.partial = buf
		return len(p), nil
	}
	lines := buf[:cut]
	w.partial = append([]byte(nil), buf[cut:]...)
	if w.size > 0 && w.size+int64(len(lines)) > w.maxBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.Write(lines); err != nil {
		return 0, err
	}
	w.size += int64(len(lines))
	return len(p), nil
}

// rotate renames the live file to path+".1" and reopens path fresh.
// Caller holds w.mu.
func (w *RotatingFile) rotate() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return fmt.Errorf("obs: rotate %s: %w", w.path, err)
	}
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	w.f, w.size = f, 0
	return nil
}

// Close flushes any buffered partial line and closes the file.
func (w *RotatingFile) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.partial) > 0 {
		if _, err := w.f.Write(w.partial); err != nil {
			return err
		}
		w.partial = nil
	}
	return w.f.Close()
}
