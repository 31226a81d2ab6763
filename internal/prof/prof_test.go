package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWriteBothFiles runs a little work between Start and Stop
// and checks that both requested profiles land, non-empty, and that a
// second Stop is a no-op.
func TestProfilesWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = make([]byte, 1<<20)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v (size %v)", path, err, st)
		}
	}
}

// TestProfilesOffByDefault checks that without the flags nothing is
// started or written.
func TestProfilesOffByDefault(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if p.cpu != nil {
		t.Fatal("CPU profile started without -cpuprofile")
	}
}
