package obs

import (
	"encoding/json"
	"io"
)

// EventLog is a JSONL telemetry sink: one JSON object per line, and the
// first failure kept for the caller to report at exit, because telemetry
// must never abort training. A nil Out discards events. It does no locking;
// its owners (TrainingRecorder, dtrain.Metrics) append under their own.
type EventLog struct {
	Out io.Writer
	err error
}

// Append writes ev as one line.
func (l *EventLog) Append(ev any) {
	if l.Out == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil {
		_, err = l.Out.Write(append(b, '\n'))
	}
	if err != nil && l.err == nil {
		l.err = err
	}
}

// Err returns the first marshal or write error, if any.
func (l *EventLog) Err() error { return l.err }
