package memcontention

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"memcontention/internal/topology"
)

func TestPlatformFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "henri.platform.json")
	plat := mustPlatform(t, "henri")
	if err := SavePlatformFile(path, plat); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPlatformFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != plat.Name || back.NCores() != plat.NCores() || back.NIC != plat.NIC {
		t.Error("platform round trip lost data")
	}
}

func TestProfileFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "henri.profile.json")
	plat := mustPlatform(t, "henri")
	prof, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveProfileFile(path, prof, plat); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProfileFile(path, plat)
	if err != nil {
		t.Fatal(err)
	}
	if back.PerCoreLocal != prof.PerCoreLocal || back.Caps.MixLocal != prof.Caps.MixLocal {
		t.Error("profile round trip lost data")
	}
	// A loaded profile drives a benchmark identically to the built-in.
	a, err := CalibrateConfig(BenchConfig{Platform: plat, Profile: back, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate("henri", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("loaded profile must behave like the built-in one")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	m, err := Calibrate("dahu", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Error("model round trip lost data")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlatformFile(bad); err == nil {
		t.Error("garbage platform accepted")
	}
	if _, err := LoadProfileFile(bad, mustPlatform(t, "henri")); err == nil {
		t.Error("garbage profile accepted")
	}
	if _, err := LoadModelFile(bad); err == nil {
		t.Error("garbage model accepted")
	}
	if _, err := LoadPlatformFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Structurally valid JSON but semantically invalid content.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlatformFile(empty); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := LoadProfileFile(empty, mustPlatform(t, "henri")); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := LoadModelFile(empty); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	var m Model // zero model is invalid
	if err := SaveModelFile(filepath.Join(dir, "m.json"), m); err == nil {
		t.Error("invalid model saved")
	}
	// A new platform: the built-in ones are shared and must not change.
	plat := topology.Henri()
	plat.Cores[0].Socket = 9
	if err := SavePlatformFile(filepath.Join(dir, "p.json"), plat); err == nil {
		t.Error("invalid platform saved")
	}
}

// readDir lists the directory entries (helper for the atomicity tests).
func readDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	// A successful write leaves exactly the target file, no temp debris.
	if err := writeJSONFile(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if names := readDir(t, dir); len(names) != 1 || names[0] != "out.json" {
		t.Fatalf("directory after write: %v, want only out.json", names)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A marshal failure (NaN is not valid JSON) must leave the existing
	// file byte-identical and clean up after itself.
	if err := writeJSONFile(path, map[string]float64{"bad": math.NaN()}); err == nil {
		t.Fatal("NaN marshalled successfully")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(first) {
		t.Error("failed write modified the existing file")
	}
	if names := readDir(t, dir); len(names) != 1 {
		t.Errorf("failed write left debris: %v", names)
	}

	// Overwrites replace the content completely.
	if err := writeJSONFile(path, map[string]int{"b": 2}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(second) == string(first) {
		t.Error("overwrite kept the old content")
	}
	if names := readDir(t, dir); len(names) != 1 {
		t.Errorf("overwrite left debris: %v", names)
	}

	// An unwritable directory fails without leaving temp files anywhere
	// visible.
	if err := writeJSONFile(filepath.Join(dir, "missing", "x.json"), 1); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
