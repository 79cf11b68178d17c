package core

// Pinned network-study bytes. testdata/net_*_v1.* and weak_table_v1.txt
// were written by an earlier build, whose net cells ran on their own
// single-engine network:
//
//   - net_journal_v1.jsonl and net_tables_v1.txt are
//     `sst-net -j 1 -journal net_journal_v1.jsonl >net_tables_v1.txt`:
//     the Fig. 9 degradation study at DefaultNetStudy's shape, journaled,
//     then the power study resumed from its journal;
//   - net_cells_v1.txt is netCellLines over DefaultNetStudy: every cell's
//     elapsed time and its network's message, byte, latency, utilization
//     and energy figures at full precision;
//   - weak_table_v1.txt is weakLines: WeakScalingStudy's table over
//     weakRanks and weakIters, then each solver's efficiencies at full
//     precision.
//
// A later build must reproduce every byte.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sst/internal/noc"
)

var (
	weakRanks = []int{4, 8, 16, 32, 64}
	weakIters = 4
)

// netCellLines runs every DefaultNetStudy cell through RunNetPoint and
// renders one line per cell.
func netCellLines(t *testing.T) []byte {
	t.Helper()
	cfg := DefaultNetStudy()
	var b bytes.Buffer
	for _, p := range netStudyProfiles() {
		for _, f := range cfg.Fractions {
			elapsed, net, err := RunNetPoint(p, cfg.Nodes, cfg.Steps, f)
			if err != nil {
				t.Fatal(err)
			}
			mean, hot := net.LinkUtilization(elapsed)
			e := net.Energy(noc.DefaultPowerParams(), elapsed)
			fmt.Fprintf(&b, "%s/%g elapsed=%d msgs=%d bytes=%d lat=%s util=%s hot=%s energy=%s\n",
				p.Name, f, elapsed, net.Messages(), net.BytesDelivered(), full(net.MessageLatencyMean()),
				full(mean), full(hot), full(e.TotalJ()))
		}
	}
	return b.Bytes()
}

func full(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// weakLines renders the weak-scaling study's table and exact efficiencies.
func weakLines(t *testing.T, opts SweepOptions) []byte {
	t.Helper()
	res, err := WeakScalingStudy(weakRanks, weakIters, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteResults(&b, FormatTable, res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cg", "ml"} {
		fmt.Fprintf(&b, "efficiency %s:", name)
		for _, e := range res.Efficiency[name] {
			fmt.Fprintf(&b, " %s", full(e))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestPinnedNetStudyFiles(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "net.jsonl")
	opts := SweepOptions{Workers: 1, Journal: journal}
	deg, err := NetDegradationStudy(DefaultNetStudy(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	pow, err := NetPowerStudy(DefaultNetStudy(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var tables bytes.Buffer
	if err := WriteResults(&tables, FormatTable, deg, pow); err != nil {
		t.Fatal(err)
	}
	if want := readPinned(t, "net_tables_v1.txt"); !bytes.Equal(tables.Bytes(), want) {
		t.Errorf("tables differ from the pinned ones\n got:\n%s\nwant:\n%s", tables.Bytes(), want)
	}
	got, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if want := readPinned(t, "net_journal_v1.jsonl"); !bytes.Equal(got, want) {
		t.Errorf("journal differs from the pinned one\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPinnedNetCells(t *testing.T) {
	if got, want := netCellLines(t), readPinned(t, "net_cells_v1.txt"); !bytes.Equal(got, want) {
		t.Errorf("net cells differ from the pinned ones\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPinnedWeakScaling(t *testing.T) {
	want := readPinned(t, "weak_table_v1.txt")
	for _, workers := range []int{1, 3} {
		if got := weakLines(t, SweepOptions{Workers: workers}); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: weak scaling differs from the pinned table\n got:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
