package main

// Pinned -system output. testdata/system-torus*.par*.out were written by an
// earlier build:
//
//	sst -system configs/<config>.json -par N >testdata/<config>.parN.out
//
// for both system configs at -par 1, 2 and 4, and
// testdata/system-torus-small.snap is the file `sst -system
// configs/system-torus-small.json -par 2 -snapshot-every 500us
// -snapshot-out system-torus-small.snap` left behind, with its summary in
// testdata/system-torus-small.snap.out. The summaries and the snapshot
// bytes are what a later build must reproduce exactly.
//
// testdata/system-torus-small.spec.snap is the same run's last snapshot
// written under the retired speculative sync mode (its runner state names
// that mode and carries its rollback counters). It must keep restoring.
//
// Pinned -config output. testdata/node-*.out and node-*.links were written
// by an earlier build:
//
//	sst -config configs/<config>.json -metrics-out m.json |
//		sed -E 's/, [0-9.]+s host, [^)]* ev\/s\)/, host figures masked)/' >testdata/<config>.out
//	jq -r '.links[] | "\(.name) \(.msgs) \(.bytes)"' m.json >testdata/<config>.links
//
// The events line keeps its event count and peak queue; its host seconds
// and events per second are masked.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sst/internal/core"
	"sst/internal/obs"
	"sst/internal/sim"
)

// captureStdout returns what fn printed to os.Stdout.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	b := <-out
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSystemGoldens(t *testing.T) {
	for _, config := range []string{"system-torus-small", "system-torus"} {
		for _, nranks := range []int{1, 2, 4} {
			golden := fmt.Sprintf("%s.par%d.out", config, nranks)
			t.Run(golden, func(t *testing.T) {
				path := filepath.Join("..", "..", "configs", config+".json")
				got := captureStdout(t, func() error {
					return runSystem(path, obsFlags{}, nranks, core.Snapshots{})
				})
				if want := readGolden(t, golden); !bytes.Equal(got, want) {
					t.Errorf("summary differs from testdata/%s\n got:\n%s\nwant:\n%s", golden, got, want)
				}
			})
		}
	}
}

func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("..", "..", "configs", "system-torus-small.json")
	snapFile := filepath.Join(t.TempDir(), "run.snap")
	got := captureStdout(t, func() error {
		return runSystem(path, obsFlags{}, 2, core.Snapshots{Every: 500 * sim.Microsecond, Out: snapFile})
	})
	if want := readGolden(t, "system-torus-small.snap.out"); !bytes.Equal(got, want) {
		t.Errorf("summary differs from testdata/system-torus-small.snap.out\n got:\n%s\nwant:\n%s", got, want)
	}
	snap, err := os.ReadFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "system-torus-small.snap"); !bytes.Equal(snap, want) {
		t.Errorf("snapshot differs from testdata/system-torus-small.snap (%d bytes, want %d)", len(snap), len(want))
	}
}

// TestRestoreSpeculativeSnapshot: a snapshot a speculative run left behind
// restores at -par 2, and the restored run ends with the uninterrupted
// run's simulation lines. Only the sync-window line may differ: it counts
// the windows of the run that wrote the snapshot.
func TestRestoreSpeculativeSnapshot(t *testing.T) {
	path := filepath.Join("..", "..", "configs", "system-torus-small.json")
	got := captureStdout(t, func() error {
		return runSystem(path, obsFlags{}, 2,
			core.Snapshots{Restore: filepath.Join("testdata", "system-torus-small.spec.snap")})
	})
	simLines := func(b []byte) []byte {
		lines, _, _ := bytes.Cut(b, []byte("sync windows:"))
		return lines
	}
	want := readGolden(t, "system-torus-small.par2.out")
	if !bytes.Equal(simLines(got), simLines(want)) {
		t.Errorf("restored run differs from testdata/system-torus-small.par2.out\n got:\n%s\nwant:\n%s", got, want)
	}
}

// hostFigures matches the host-dependent tail of a machine run's events line.
var hostFigures = regexp.MustCompile(`, [0-9.]+s host, [^)]* ev/s\)`)

func TestMachineGoldens(t *testing.T) {
	for _, config := range []string{"node-ddr3-w4", "node-pim"} {
		t.Run(config, func(t *testing.T) {
			path := filepath.Join("..", "..", "configs", config+".json")
			metrics := filepath.Join(t.TempDir(), "m.json")
			got := captureStdout(t, func() error {
				return run(path, false, obsFlags{metricsOut: metrics}, "", "10us")
			})
			got = hostFigures.ReplaceAll(got, []byte(", host figures masked)"))
			if want := readGolden(t, config+".out"); !bytes.Equal(got, want) {
				t.Errorf("summary differs from testdata/%s.out\n got:\n%s\nwant:\n%s", config, got, want)
			}
			data, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var rep obs.RunReport
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			var links bytes.Buffer
			for _, l := range rep.Links {
				fmt.Fprintf(&links, "%s %d %d\n", l.Name, l.Msgs, l.Bytes)
			}
			if want := readGolden(t, config+".links"); !bytes.Equal(links.Bytes(), want) {
				t.Errorf("link counts differ from testdata/%s.links\n got:\n%s\nwant:\n%s", config, links.Bytes(), want)
			}
		})
	}
}
