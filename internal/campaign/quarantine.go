package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"memcontention/internal/atomicio"
)

// QuarantineFile is the report file an in-process campaign (RunLocal)
// writes into its directory: the units its workers quarantined after
// exhausting their retry budget, empty on a clean run.
const QuarantineFile = "quarantine.jsonl"

// QuarantineRecord is one quarantined unit as persisted in
// quarantine.jsonl: everything needed to reproduce and triage the
// failure without rerunning the campaign.
type QuarantineRecord struct {
	Key      string `json:"key"`
	Shard    int    `json:"shard"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// QuarantineError reports a worker (or an in-process campaign) that
// journaled its healthy units but quarantined others; final artifacts
// cannot be assembled with units missing, so the campaign surfaces this
// instead of silently writing partial results. The per-unit detail is in
// Records and, for RunLocal, in the quarantine.jsonl file at Path.
type QuarantineError struct {
	// Records are the quarantined units, sorted by key.
	Records []QuarantineRecord
	// Path is the quarantine.jsonl report location ("" for a single
	// worker, which writes no report).
	Path string
}

func (e *QuarantineError) Error() string {
	keys := make([]string, len(e.Records))
	for i, r := range e.Records {
		keys[i] = r.Key
	}
	see := ""
	if e.Path != "" {
		see = " (see " + e.Path + ")"
	}
	return fmt.Sprintf("campaign: %d unit(s) quarantined after repeated failures%s: %s",
		len(e.Records), see, strings.Join(keys, ", "))
}

// ErrQuarantined is the sentinel behind every QuarantineError, for
// errors.Is checks that do not care about the detail.
var ErrQuarantined = errors.New("campaign: units quarantined")

// Unwrap exposes the sentinel to errors.Is.
func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// writeQuarantine durably writes records (sorted by key, one JSON object
// per line) at path. Campaigns are deterministic, so the report bytes
// are too: the same poison units quarantine with the same errors no
// matter how the shards were scheduled. An empty record set writes an
// empty file, making "no quarantine" observable rather than ambiguous
// with "report lost".
func writeQuarantine(path string, records []QuarantineRecord) error {
	sorted := append([]QuarantineRecord(nil), records...)
	sortQuarantine(sorted)
	var buf bytes.Buffer
	for _, r := range sorted {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("campaign: encode quarantine record %q: %w", r.Key, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("campaign: write quarantine report: %w", err)
	}
	return nil
}

// sortQuarantine orders records by unit key.
func sortQuarantine(records []QuarantineRecord) {
	sort.Slice(records, func(i, j int) bool { return records[i].Key < records[j].Key })
}

// ReadQuarantine loads a quarantine.jsonl report. A missing file is an
// empty report (the campaign had nothing to quarantine or has not
// finished); a present but malformed line is an error — the report is
// written atomically, so torn content means something else went wrong.
func ReadQuarantine(dir string) ([]QuarantineRecord, error) {
	path := filepath.Join(dir, QuarantineFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read quarantine report: %w", err)
	}
	defer f.Close()
	var records []QuarantineRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r QuarantineRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("campaign: quarantine report %s: %w", path, err)
		}
		records = append(records, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: quarantine report %s: %w", path, err)
	}
	return records, nil
}
