package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestLoggerJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)

	l.emit(LevelDebug, "below the floor", nil) // filtered
	l.emit(LevelInfo, "segment opened", []Field{F("segment", "wal-000001.log")})
	l.Warn("torn tail", F("records_replayed", 42), F("err", errors.New("checksum mismatch")))

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSON line: %s", line)
		}
	}
	// Fixed key order keeps lines greppable.
	if !strings.HasPrefix(lines[0], `{"ts":"`) || !strings.Contains(lines[0], `"level":"info","msg":"segment opened","segment":"wal-000001.log"`) {
		t.Errorf("unexpected info line: %s", lines[0])
	}
	// error values render as their message.
	if !strings.Contains(lines[1], `"err":"checksum mismatch"`) {
		t.Errorf("error field not rendered: %s", lines[1])
	}

	var ev struct {
		TS    string `json:"ts"`
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Level != "warn" || ev.Msg != "torn tail" || ev.TS == "" {
		t.Errorf("parsed event = %+v", ev)
	}
}

func TestLoggerWithAndInstrument(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	base := NewLogger(&buf, LevelDebug).Instrument(reg)
	child := base.With(F("region", "iot,00001"), F("server", "2"))

	child.Warn("memtable flush failed", F("attempt", 1))

	line := buf.String()
	// With-fields render before call-site fields.
	if !strings.Contains(line, `"region":"iot,00001","server":"2","attempt":1`) {
		t.Errorf("unexpected field order: %s", line)
	}
	if got := reg.CounterValue(Tagged("log.events", Tag{Key: "level", Value: "warn"})); got != 1 {
		t.Errorf("warn counter = %d, want 1", got)
	}
	if got := reg.CounterValue(Tagged("log.events", Tag{Key: "level", Value: "info"})); got != 0 {
		t.Errorf("info counter = %d, want 0", got)
	}
}

func TestNilLoggerIsNoop(t *testing.T) {
	var l *Logger
	l.Warn("into the void", F("k", "v"))
	l.With(F("k", "v")).Error("still nothing")
	// No panic is the assertion.
}
