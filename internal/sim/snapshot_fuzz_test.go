package sim_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strings"
	"testing"

	"sst/internal/sim"
)

// FuzzSnapshotDecode: a snapshot file is bytes from disk, so arbitrary
// input to LoadFrom over the ping model must return an error or yield an
// engine that keeps running — never a panic, a wedge or an allocation the
// input's own length does not justify. Each input is tried twice: as the
// container itself (magic, version, length, checksum) and framed as the
// body of a valid container, so mutations reach the state decoder without
// having to guess a CRC.
func FuzzSnapshotDecode(f *testing.F) {
	snap, err := os.ReadFile("testdata/clock_armed_v2.snap")
	if err != nil {
		f.Fatal(err)
	}
	body, err := sim.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(body)
	f.Add(hugeLengthHeader())
	f.Add(lowSeqBody(body))
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := sim.WriteSnapshot(&framed, data); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{data, framed.Bytes()} {
			s, _, _ := buildPingModel(true)
			if s.Engine().LoadFrom(bytes.NewReader(file)) == nil {
				s.Run(s.Now() + 200*sim.Nanosecond)
			}
		}
	})
}

// lowSeqBody rewrites a snapshot body's engine sequence counter to 1, so
// every pending event the components re-create carries a sequence number
// the restored counter rules out — the fuzzer's first finding, which used to
// panic in ScheduleRestoredAt.
func lowSeqBody(body []byte) []byte {
	dec := sim.NewDecoder(body)
	now := dec.Time()
	dec.U64() // the real counter
	enc := sim.NewEncoder()
	enc.Time(now)
	enc.U64(1)
	return append(enc.Bytes(), body[len(body)-dec.Remaining():]...)
}

// TestRestoreRejectsImpossibleSeq: state the counters rule out is an error
// from LoadFrom, not a panic.
func TestRestoreRejectsImpossibleSeq(t *testing.T) {
	snap, err := os.ReadFile("testdata/clock_armed_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	body, err := sim.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := sim.WriteSnapshot(&file, lowSeqBody(body)); err != nil {
		t.Fatal(err)
	}
	s, _, _ := buildPingModel(true)
	err = s.Engine().LoadFrom(&file)
	if err == nil || !strings.Contains(err.Error(), "not below restored counter") {
		t.Fatalf("LoadFrom = %v, want the impossible-sequence error", err)
	}
}

// hugeLengthHeader is an 18-byte snapshot file: a valid magic and version
// and a body length of 2 GiB, with no body behind it.
func hugeLengthHeader() []byte {
	hdr := append([]byte("GOSSTSNP"), 0, 0)
	binary.LittleEndian.PutUint16(hdr[8:], sim.SnapshotVersion)
	return binary.LittleEndian.AppendUint64(hdr, 1<<31)
}

// TestReadSnapshotAllocatesWhatIsPresent: the header's length field is a
// claim. Reading the 18-byte file must fail having allocated well under
// 1 MiB, not the 2 GiB the header announces.
func TestReadSnapshotAllocatesWhatIsPresent(t *testing.T) {
	file := hugeLengthHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sim.ReadSnapshot(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "sim: snapshot body: EOF" {
		t.Fatalf("err = %v, want the truncated-body error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading an 18-byte file allocated %d bytes", got)
	}
}
