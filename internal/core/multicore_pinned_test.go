package core

// Pinned multicore bytes. testdata/multicore_{bus,directory}_v1.txt were
// written by an earlier build: multicoreLines for a 4-core gups node at
// Small scale over each coherence fabric — the NodeResult as JSON (host
// wall time zeroed) followed by every statistic the node registered,
// the fabric's transaction, snoop and same-line conflict counters among
// them. A later build must reproduce every byte.

import (
	"bytes"
	"encoding/json"
	"testing"
)

// multicoreLines runs a 4-core gups node over the given coherence fabric
// and renders its result and statistics.
func multicoreLines(t *testing.T, coherence string) []byte {
	t.Helper()
	cfg := SweepMachine("gups", "ddr3-1333", 1, Small)
	cfg.Node.Cores = 4
	cfg.Node.Coherence = coherence
	n, err := BuildNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.HostSeconds = 0
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(append(b, '\n'))
	n.Reg.Dump(buf)
	return buf.Bytes()
}

func TestPinnedMulticore(t *testing.T) {
	for _, coherence := range []string{"bus", "directory"} {
		got, want := multicoreLines(t, coherence), readPinned(t, "multicore_"+coherence+"_v1.txt")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: multicore node differs from the pinned one\n got:\n%s\nwant:\n%s", coherence, got, want)
		}
	}
}
