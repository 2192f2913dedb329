package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"

	"memcontention/internal/atomicio"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/netbench"
)

// Artifacts is the final output of a full pipeline run: everything needed
// to regenerate the paper's Table II plus the network sweep and the DES
// cross-check outcome. All content is deterministic in (seed, config), so
// two runs of the same pipeline — interrupted and resumed any number of
// times — produce byte-identical files from Write.
type Artifacts struct {
	Seed       uint64                 `json:"seed"`
	Platforms  []*eval.PlatformResult `json:"platforms"`
	Netbench   []netbench.Point       `json:"netbench"`
	CrossCheck *CrossCheckResult      `json:"cross_check"`
	// Replications is the Monte-Carlo replication sweep summary, present
	// only when the campaign ran with Config.Replications > 1.
	Replications *ReplicationSummary `json:"replications,omitempty"`
}

// Pipeline runs the full Table II campaign: evaluate the named platforms
// (nil: the whole Table I testbed), sweep the network on the first one,
// and run the DES cross-check (under cfg.FaultPlan when set). Every
// completed unit is journaled via cfg.Journal, so an interrupted pipeline
// resumes where it died; see the package comment for the guarantees.
func Pipeline(cfg Config, names []string) (*Artifacts, error) {
	cfg = cfg.withDefaults()
	if len(names) == 0 {
		names = TestbedNames()
	}
	results, err := EvaluatePlatforms(cfg, names)
	if err != nil {
		return nil, err
	}
	points, err := Netbench(cfg, names[0])
	if err != nil {
		return nil, err
	}
	xc, err := CrossCheck(cfg, names[0])
	if err != nil {
		return nil, err
	}
	art := &Artifacts{Seed: cfg.Seed, Platforms: results, Netbench: points, CrossCheck: xc}
	if cfg.Replications > 1 {
		rep, err := Replicate(cfg, names, results)
		if err != nil {
			return nil, err
		}
		art.Replications = rep
	}
	return art, nil
}

// Write stores the artifacts in dir: table2.json / table2.txt (the model
// errors in machine and paper form), netbench.json, crosscheck.json and
// — for replicated campaigns — replications.json / replications.txt.
// Every file is written atomically and durably (temp + fsync + rename),
// so a crash during Write never leaves a torn artifact.
func (a *Artifacts) Write(dir string) error {
	// The directory itself is made durable (each created level fsynced):
	// artifacts that survive a crash only inside a directory entry the
	// filesystem may drop are not durable at all.
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var table bytes.Buffer
	if err := eval.Table2(a.Platforms).WriteText(&table); err != nil {
		return err
	}
	type artifactFile struct {
		name string
		data func() ([]byte, error)
	}
	files := []artifactFile{
		{"table2.txt", func() ([]byte, error) { return table.Bytes(), nil }},
		{"table2.json", func() ([]byte, error) { return export.MarshalIndent(a.Platforms) }},
		{"netbench.json", func() ([]byte, error) { return export.MarshalIndent(a.Netbench) }},
		{"crosscheck.json", func() ([]byte, error) { return export.MarshalIndent(a.CrossCheck) }},
	}
	if a.Replications != nil {
		var reptxt bytes.Buffer
		if err := a.Replications.Table().WriteText(&reptxt); err != nil {
			return err
		}
		files = append(files,
			artifactFile{"replications.txt", func() ([]byte, error) { return reptxt.Bytes(), nil }},
			artifactFile{"replications.json", func() ([]byte, error) { return export.MarshalIndent(a.Replications) }},
		)
	}
	for _, f := range files {
		data, err := f.data()
		if err != nil {
			return fmt.Errorf("campaign: encode %s: %w", f.name, err)
		}
		if err := atomicio.WriteFile(filepath.Join(dir, f.name), data, 0o644); err != nil {
			return fmt.Errorf("campaign: write %s: %w", f.name, err)
		}
	}
	return nil
}
