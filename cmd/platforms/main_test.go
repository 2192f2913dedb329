package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memcontention"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
)

// TestDescribeTopo: -name henri -topo prints the description, then the
// lstopo-style box with the NIC on node 1 and socket 1's cores.
func TestDescribeTopo(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, options{name: "henri", topo: true}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	p, err := topology.ByName("henri")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, p.Describe()) {
		t.Errorf("output does not open with the description:\n%s", got)
	}
	for _, want := range []string{"NUMANode 1 (48 GB)  ← NIC", "cores 18-35"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestUnknownPlatformListsKnown: an unknown -name is an error naming
// every built-in platform, and nothing is printed.
func TestUnknownPlatformListsKnown(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), &out, options{name: "cray-1"}, &obs.CLI{})
	if err == nil {
		t.Fatal("unknown platform accepted")
	}
	for _, name := range topology.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote %q", out.String())
	}
}

// TestUsageErrorsRejected: a flag the chosen mode would ignore is a usage
// error, refused before any work, with nothing on stdout and no export
// directory created.
func TestUsageErrorsRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	for _, tc := range []struct {
		want string
		o    options
	}{
		{"-topo:", options{topo: true}},
		{"-topo:", options{topo: true, profiles: true}},
		{"-export " + dir + ":", options{exportDir: dir, name: "henri", topo: true}},
		{"-export " + dir + ":", options{exportDir: dir, name: "henri"}},
		{"-export " + dir + ":", options{exportDir: dir, profiles: true}},
	} {
		var out bytes.Buffer
		err := run(context.Background(), &out, tc.o, &obs.CLI{})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want a usage error starting %q", tc.o, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%+v: rejected run wrote %q", tc.o, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%+v: rejected run created the export directory (stat: %v)", tc.o, err)
		}
	}
}

// TestExportRoundTrips: -export writes one platform and one profile file
// per built-in platform, and the loaders read back exactly the built-ins.
func TestExportRoundTrips(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), &out, options{exportDir: dir}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Errorf("export wrote %d files, want a platform and a profile file for each of the 6 built-ins", len(entries))
	}
	for _, want := range topology.Testbed() {
		plat, err := memcontention.LoadPlatformFile(filepath.Join(dir, want.Name+".platform.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plat, want) {
			t.Errorf("%s: platform file reads back %+v, want %+v", want.Name, plat, want)
		}
		prof, err := memcontention.LoadProfileFile(filepath.Join(dir, want.Name+".profile.json"), plat)
		if err != nil {
			t.Fatal(err)
		}
		wantProf, err := memsys.ProfileFor(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prof, wantProf) {
			t.Errorf("%s: profile file reads back %+v, want %+v", want.Name, prof, wantProf)
		}
	}
	if got := out.String(); got != "wrote 6 platform/profile pairs to "+dir+"\n" {
		t.Errorf("export printed %q", got)
	}
}
