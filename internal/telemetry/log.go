package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Level is a log event's severity.
type Level int8

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "unknown"
	}
}

// Field is one structured key-value pair on a log event.
type Field struct {
	Key   string
	Value any
}

// F builds a Field; the short name keeps call sites readable.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Logger emits structured, leveled events as JSON Lines: one object per
// event with "ts", "level" and "msg" keys followed by the event's fields.
// It replaces raw log.Printf calls in the storage engine so recovery-path
// warnings stay machine-greppable. Safe for concurrent use; a nil *Logger
// discards everything, so instrumented code never branches on whether
// logging is enabled.
type Logger struct {
	min  Level
	base []Field // fields attached by With, rendered on every event

	sink *logSink
}

// logSink is the shared output half of a logger and all its With children.
type logSink struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time

	// Per-level event counters, attached by Instrument as
	// "log.events{level=...}".
	events [4]Counter
}

// NewLogger returns a logger writing JSONL events at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{min: min, sink: &logSink{w: w, now: time.Now}}
}

// Instrument attaches the logger's per-level event counts to reg as
// "log.events{level=...}" (rolled up into "log.events"). Returns the logger
// for chaining.
func (l *Logger) Instrument(reg *Registry) *Logger {
	if l == nil {
		return l
	}
	for lv := LevelDebug; lv <= LevelError; lv++ {
		reg.Attach(&l.sink.events[lv], "log.events", Tag{Key: "level", Value: lv.String()})
	}
	return l
}

// With returns a logger that attaches fields to every event. The child
// shares the parent's sink, level floor and instrumentation.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	base := append(append([]Field(nil), l.base...), fields...)
	return &Logger{min: l.min, base: base, sink: l.sink}
}

// Warn emits a warning event. No-op on a nil logger.
func (l *Logger) Warn(msg string, fields ...Field) { l.emit(LevelWarn, msg, fields) }

// Error emits an error event. No-op on a nil logger.
func (l *Logger) Error(msg string, fields ...Field) { l.emit(LevelError, msg, fields) }

func (l *Logger) emit(level Level, msg string, fields []Field) {
	if l == nil || level < l.min {
		return
	}
	// Render outside the sink lock; only the write is serialised.
	line := renderEvent(l.sink.now(), level, msg, l.base, fields)

	s := l.sink
	s.mu.Lock()
	if s.w != nil {
		s.w.Write(line)
	}
	s.mu.Unlock()
	if level >= LevelDebug && level <= LevelError {
		s.events[level].Inc()
	}
}

// renderEvent builds one JSONL line. Keys render in a fixed order — ts,
// level, msg, then fields in the order given — so lines are stable and
// greppable. Values marshal with encoding/json; a value that fails to
// marshal renders as its error string.
func renderEvent(ts time.Time, level Level, msg string, base, fields []Field) []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, `{"ts":"`...)
	buf = ts.UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","level":"`...)
	buf = append(buf, level.String()...)
	buf = append(buf, `","msg":`...)
	buf = appendJSON(buf, msg)
	for _, f := range base {
		buf = appendField(buf, f)
	}
	for _, f := range fields {
		buf = appendField(buf, f)
	}
	buf = append(buf, '}', '\n')
	return buf
}

func appendField(buf []byte, f Field) []byte {
	buf = append(buf, ',')
	buf = appendJSON(buf, f.Key)
	buf = append(buf, ':')
	// error values are common fields and do not marshal usefully; render
	// their message instead.
	if err, ok := f.Value.(error); ok && err != nil {
		return appendJSON(buf, err.Error())
	}
	return appendJSON(buf, f.Value)
}

func appendJSON(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(err.Error())
	}
	return append(buf, b...)
}
