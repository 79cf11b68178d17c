package core

// Resumable sweeps: an append-only JSONL journal of completed design
// points. Each finished point appends one line — {"key","result"} on
// success, {"key","err"} on failure — and the file is fsync'd after every
// record, so a sweep killed at any instant loses at most the line being
// written. A kill mid-write leaves one truncated final line, which
// OpenJournalFS tolerates by truncating the file back to the last complete
// record before reopening it for append (iofault.AppendLog owns that
// algorithm; this file owns the record format and the failure policy).
// Resuming a sweep skips every key with a successful entry (restoring its
// saved result into the grid) and re-runs failed or missing points, so an
// interrupted sweep converges to the same grid an uninterrupted one
// produces.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sst/internal/iofault"
)

// ErrJournal marks a failure to open or durably write the sweep journal.
// It is a first-class sweep failure — exit code 1, not a failed-point
// exit 3 — because a sweep whose crash-safety layer is broken must not
// look like a sweep that merely had unlucky points: the operator has to
// fix the disk, not the design.
var ErrJournal = errors.New("journal write failed")

// journalEntry is one JSONL record: a point's stable key plus either its
// serialized result or its failure text, and any retries the point took
// on the way. Retries carry seeded backoff delays, so the record — and
// therefore the whole journal — is byte-identical across runs.
type journalEntry struct {
	Key     string          `json:"key"`
	Err     string          `json:"err,omitempty"`
	Retries []RetryRecord   `json:"retries,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// Journal is an append-only, crash-tolerant record of completed sweep
// points. Record is safe for concurrent use by the sweep worker pool.
type Journal struct {
	mu   sync.Mutex
	log  *iofault.AppendLog
	done map[string]journalEntry
	line []byte // Record's encode buffer, reused under mu
}

// OpenJournalFS opens (creating if absent) the journal at path on fsys —
// the host-storage seam the crash-point harness substitutes a fault
// model for. When resume is true, every complete record already in the
// file is loaded and a truncated final line — the signature of a crash
// mid-append — is cut off; when false the file is started fresh.
func OpenJournalFS(fsys iofault.FS, path string, resume bool) (*Journal, error) {
	j := &Journal{done: make(map[string]journalEntry)}
	log, err := iofault.OpenAppendLog(fsys, path, !resume, func(line []byte) bool {
		var ent journalEntry
		if json.Unmarshal(line, &ent) != nil || ent.Key == "" {
			return false
		}
		j.done[ent.Key] = ent
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("core: journal: %w: %w", ErrJournal, err)
	}
	j.log = log
	return j, nil
}

// Completed returns the recorded entry for key, if any. Entries with a
// non-empty Err are failures; resume re-runs those points.
func (j *Journal) Completed(key string) (journalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ent, ok := j.done[key]
	return ent, ok
}

// Record appends one point's outcome — including its retry history — and
// fsyncs it. result is ignored when perr is non-nil; otherwise it must be
// compact JSON exactly as json.Marshal emits it, because it is written
// verbatim (every caller passes json.Marshal output, so re-encoding it
// would only re-scan it). Write and fsync failures wrap ErrJournal: the
// record cannot be trusted to survive a crash, so the sweep must fail
// loudly rather than pretend the point is durable. After the first such
// failure every later Record fails the same way without writing (see
// iofault.AppendLog.Append).
func (j *Journal) Record(key string, result json.RawMessage, retries []RetryRecord, perr error) error {
	ent := journalEntry{Key: key, Retries: retries}
	if perr != nil {
		// First line only: the message without the stack trace behind it,
		// so failure records are as deterministic as success records.
		ent.Err = firstLine(perr.Error())
	} else {
		ent.Result = result
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	line, err := appendJournalLine(j.line[:0], &ent)
	if err != nil {
		return fmt.Errorf("core: journal: %w: %w", ErrJournal, err)
	}
	j.line = line
	if err := j.log.Append(line); err != nil {
		return fmt.Errorf("core: journal: %w: %w", ErrJournal, err)
	}
	j.done[key] = ent
	return nil
}

// appendJournalLine is the one encoder of a journal record: the bytes
// json.Marshal(ent) produces — journalEntry's field order and omitempty
// rules, strings with encoding/json's HTML escaping — written directly,
// with ent.Result copied verbatim.
func appendJournalLine(b []byte, ent *journalEntry) ([]byte, error) {
	b = append(b, `{"key":`...)
	b = appendJSONString(b, ent.Key)
	if ent.Err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, ent.Err)
	}
	if len(ent.Retries) > 0 {
		r, err := json.Marshal(ent.Retries)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"retries":`...), r...)
	}
	if len(ent.Result) > 0 {
		b = append(append(b, `,"result":`...), ent.Result...)
	}
	return append(b, '}'), nil
}

// appendJSONString appends s as json.Marshal encodes a string. Printable
// ASCII that needs no escaping — every key the studies generate — is
// copied between quotes; anything else goes through encoding/json, so
// escaping rules are never re-implemented here.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// recordPoint journals one executed point: v on success, perr's first line
// otherwise. A record that cannot be written becomes the point's error
// rather than a silent skip; when the point itself also failed, the two
// errors are joined so neither is lost.
func (j *Journal) recordPoint(key string, v any, retries []RetryRecord, perr error) error {
	var raw json.RawMessage
	if perr == nil {
		var err error
		if raw, err = json.Marshal(v); err != nil {
			perr = fmt.Errorf("core: journal: serializing point %q: %w", key, err)
		}
	}
	if jerr := j.Record(key, raw, retries, perr); jerr != nil {
		if perr == nil {
			return jerr
		}
		return errors.Join(perr, jerr)
	}
	return perr
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
