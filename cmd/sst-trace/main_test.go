package main

import (
	"os"
	"path/filepath"
	"testing"

	"sst/internal/cli"
)

func TestRecordInfoReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.bin")
	if err := record([]string{"-workload", "daxpy", "-n", "64", "-o", trace}); err != nil {
		t.Fatal(err)
	}
	if err := info([]string{"-i", trace}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-i", trace, "-width", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-i", trace, "-l1", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordKernelWithLimit(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "k.bin")
	if err := record([]string{"-workload", "stream", "-n", "256", "-max", "500", "-o", trace}); err != nil {
		t.Fatal(err)
	}
	if err := info([]string{"-i", trace}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordUnknownWorkload(t *testing.T) {
	err := record([]string{"-workload", "doom", "-o", filepath.Join(t.TempDir(), "x.bin")})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if cli.Code(err) != cli.ExitConfig {
		t.Errorf("unknown workload maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
}

func TestInfoMissingFile(t *testing.T) {
	err := info([]string{"-i", "/nonexistent.bin"})
	if err == nil {
		t.Fatal("missing trace accepted")
	}
	if cli.Code(err) != cli.ExitFailure {
		t.Errorf("missing trace maps to exit %d, want %d", cli.Code(err), cli.ExitFailure)
	}
}

func TestReplayBadUnits(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.bin")
	if err := record([]string{"-workload", "daxpy", "-n", "16", "-o", trace}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-i", trace, "-freq", "fast"},
		{"-i", trace, "-memlat", "soon"},
		{"-i", trace, "-format", "xml"},
	} {
		err := replay(args)
		if err == nil {
			t.Errorf("replay %v accepted", args)
			continue
		}
		if cli.Code(err) != cli.ExitConfig {
			t.Errorf("replay %v maps to exit %d, want %d", args, cli.Code(err), cli.ExitConfig)
		}
	}
}

func TestOpenWorkloadAll(t *testing.T) {
	for _, w := range []string{"daxpy", "dot", "chase", "fib", "hpccg", "lulesh", "stencil", "stream", "gups", "fea", "minimd"} {
		s, closer, err := openWorkload(w, 64)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if s == nil {
			t.Fatalf("%s: nil stream", w)
		}
		if closer != nil {
			closer()
		}
	}
}

// replayOut runs replay with args and returns what it printed.
func replayOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	rerr := replay(args)
	os.Stdout = stdout
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), rerr
}

// TestReplayL1Size: -l1 takes any config size, "0" disables the L1, and a
// size that does not parse or that the cache rejects is a configuration
// error. The STREAM triad over 3 × 64 KiB arrays replays differently
// under a 32 KB and a 64 KB L1.
func TestReplayL1Size(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.bin")
	if err := record([]string{"-workload", "stream", "-n", "8192", "-o", trace}); err != nil {
		t.Fatal(err)
	}
	outs := map[string]string{}
	for _, tc := range []struct {
		l1   string
		exit int
	}{
		{"32KB", cli.ExitOK},
		{"64KB", cli.ExitOK},
		{"1MB", cli.ExitOK},
		{"0", cli.ExitOK},
		{"bogus", cli.ExitConfig},
		{"100", cli.ExitConfig},
	} {
		out, err := replayOut(t, "-i", trace, "-l1", tc.l1)
		if cli.Code(err) != tc.exit {
			t.Errorf("-l1 %s: exit %d (%v), want %d", tc.l1, cli.Code(err), err, tc.exit)
		}
		outs[tc.l1] = out
	}
	if outs["32KB"] == outs["64KB"] {
		t.Errorf("-l1 64KB replays like 32KB: %q", outs["32KB"])
	}
	if outs["0"] == outs["32KB"] || outs["0"] == outs["1MB"] {
		t.Errorf("-l1 0 did not disable the L1: %q", outs["0"])
	}
}
