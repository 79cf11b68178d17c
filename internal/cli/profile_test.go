package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags checks that -cpuprofile and -memprofile each leave a
// pprof file (gzip-compressed protobuf) and that an uncreatable
// -cpuprofile is a configuration error.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := RegisterProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := range 1 << 20 {
		sink += len(make([]byte, i&63))
	}
	_ = sink
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s is not a gzipped pprof profile (%d bytes)", filepath.Base(path), len(b))
		}
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	p = RegisterProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); Code(err) != ExitConfig {
		t.Fatalf("uncreatable -cpuprofile: err %v (exit %d), want a configuration error", err, Code(err))
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}
