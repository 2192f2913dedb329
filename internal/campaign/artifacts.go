package campaign

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"

	"memcontention/internal/atomicio"
	"memcontention/internal/bench"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/report"
	"memcontention/internal/topology"
)

// Artifacts is the final output of a campaign: the platform evaluations
// behind the paper's Tables I–II, Figures 2–8 and per-platform reports.
// All content is deterministic in (seed, config), so two runs of the
// same campaign produce byte-identical files from Write.
type Artifacts struct {
	Seed      uint64                 `json:"seed"`
	Platforms []*eval.PlatformResult `json:"platforms"`
	// Replications is the Monte-Carlo replication sweep summary, present
	// only when the campaign ran with Config.Replications > 1.
	Replications *ReplicationSummary `json:"replications,omitempty"`
}

// File is one rendered artifact: its name in the output directory and its
// bytes.
type File struct {
	Name string
	Data []byte
}

// Files renders every artifact, in this order: table1.txt, table2.txt
// and table2.json; replications.txt and replications.json when the
// campaign was replicated; figure2.csv … figure8.csv for the platforms
// the campaign covers; one report-<platform>.txt per platform, whose
// ablation re-runs on a runner at a.Seed, the seed the evaluations ran
// at.
func (a *Artifacts) Files() ([]File, error) {
	var files []File
	var err error
	add := func(name string, render func(w io.Writer) error) {
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err = render(&buf); err != nil {
			err = fmt.Errorf("campaign: render %s: %w", name, err)
			return
		}
		files = append(files, File{Name: name, Data: buf.Bytes()})
	}
	jsonOf := func(v any) func(w io.Writer) error {
		return func(w io.Writer) error { return export.WriteJSON(w, v) }
	}
	add("table1.txt", eval.Table1(topology.Testbed()).WriteText)
	add("table2.txt", eval.Table2(a.Platforms).WriteText)
	add("table2.json", jsonOf(a.Platforms))
	if a.Replications != nil {
		add("replications.txt", a.Replications.Table().WriteText)
		add("replications.json", jsonOf(a.Replications))
	}
	byName := make(map[string]*eval.PlatformResult, len(a.Platforms))
	for _, r := range a.Platforms {
		byName[r.Platform] = r
	}
	for _, f := range eval.PaperFigures {
		if r := byName[f.Platform]; r != nil {
			add(f.Name+".csv", func(w io.Writer) error { return f.WriteCSV(w, r) })
		}
	}
	for _, r := range a.Platforms {
		add("report-"+r.Platform+".txt", func(w io.Writer) error {
			plat, err := topology.ByName(r.Platform)
			if err != nil {
				return err
			}
			runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: a.Seed})
			if err != nil {
				return err
			}
			return report.Write(w, r, runner)
		})
	}
	return files, err
}

// Write renders the artifacts (Files) and stores them in dir, each file
// atomically and durably (temp + fsync + rename), so a crash during Write
// never leaves a torn artifact.
func (a *Artifacts) Write(dir string) error {
	files, err := a.Files()
	if err != nil {
		return err
	}
	// The directory itself is made durable (each created level fsynced):
	// artifacts that survive a crash only inside a directory entry the
	// filesystem may drop are not durable at all.
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		if err := atomicio.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
			return fmt.Errorf("campaign: write %s: %w", f.Name, err)
		}
	}
	return nil
}
