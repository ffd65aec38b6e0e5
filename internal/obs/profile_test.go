package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty profile (%v)", p, err)
		}
	}

	// No paths: nothing started, nothing written, stop is still safe.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	if _, err := StartProfiles(filepath.Join(dir, "no/such/dir/cpu.prof"), ""); err == nil {
		t.Error("unwritable CPU profile path: no error")
	}
	stop, err = StartProfiles("", filepath.Join(dir, "no/such/dir/mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable heap profile path: stop returned no error")
	}
}
