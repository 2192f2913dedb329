package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"memcontention/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite pins.json from the current program")

// computePins recomputes every pinned output: the 16 artifact digests of
// paper-testbed and the simulated seconds, fabric messages and bytes of
// every cluster-halo job, for each seed class.
func computePins() (*pinFile, error) {
	p := &pinFile{PaperTestbed: map[string]map[string]string{}, ClusterHalo: map[string][]jobPin{}}
	for seed := uint64(1); seed <= pinnedSeeds; seed++ {
		arts, err := paperArtifacts(seed)
		if err != nil {
			return nil, err
		}
		digests := map[string]string{}
		for _, a := range arts {
			digests[a.name] = sha256Hex(a.data)
		}
		p.PaperTestbed[fmt.Sprint(seed)] = digests

		shapes, err := genShapes(seed)
		if err != nil {
			return nil, err
		}
		for _, s := range shapes {
			fc := &flowCapture{}
			fc.begin(s.platform)
			secs, err := runJob(s, nil, fc, -1, 0, nil)
			if err != nil {
				return nil, err
			}
			msgs, bytes := fc.messages()
			p.ClusterHalo[fmt.Sprint(seed)] = append(p.ClusterHalo[fmt.Sprint(seed)], jobPin{
				Shape:      s.String(),
				SimSeconds: strconv.FormatFloat(secs, 'g', -1, 64),
				Messages:   msgs,
				Bytes:      bytes,
			})
		}
	}
	return p, nil
}

// paperArtifacts renders one paper-testbed op's artifacts.
func paperArtifacts(seed uint64) ([]artifact, error) {
	results, err := campaign.EvaluatePlatforms(campaign.Config{Seed: seed, Workers: paperWorkers}, campaign.TestbedNames())
	if err != nil {
		return nil, err
	}
	return renderArtifacts(results, seed, nil, -1, 0, nil)
}

// TestPins checks pins.json against the program; -update rewrites it.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes every pinned output")
	}
	got, err := computePins()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pins.json is stale: the program's outputs changed (regenerate with -update only if the change is intended)")
	}
}

// TestArtifactsMatchPaperfigs is the output oracle: at seed 1 the
// in-memory artifacts are byte-identical to the files paperfigs writes.
func TestArtifactsMatchPaperfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs paperfigs")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "paperfigs")
	if out, err := exec.Command("go", "build", "-o", bin, "memcontention/cmd/paperfigs").CombinedOutput(); err != nil {
		t.Fatalf("build paperfigs: %v\n%s", err, out)
	}
	outDir := filepath.Join(dir, "out")
	if out, err := exec.Command(bin, "-out", outDir, "-seed", "1").CombinedOutput(); err != nil {
		t.Fatalf("paperfigs: %v\n%s", err, out)
	}
	files, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := paperArtifacts(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(arts) || len(arts) != 16 {
		t.Fatalf("paperfigs wrote %d files, the benchmark renders %d, want 16", len(files), len(arts))
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		data, err := os.ReadFile(filepath.Join(outDir, a.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, a.data) {
			t.Errorf("%s differs from paperfigs' file", a.name)
		}
		if got := sha256Hex(data); got != pins.PaperTestbed["1"][a.name] {
			t.Errorf("%s: paperfigs' sha256 %s is not the pinned one", a.name, got)
		}
	}
}
