package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"sst/internal/sim"
)

// TestSamplerEveryUnknownStatPanics: a periodic sampler over a statistic
// that never gets registered fails loudly at its first tick — inside the
// run, where the bad name is still known — rather than silently recording
// zeros.
func TestSamplerEveryUnknownStatPanics(t *testing.T) {
	reg := NewRegistry()
	engine := sim.NewEngine()
	s := NewSampler(reg, "ghost.stat")
	s.Every(engine, sim.Nanosecond, 3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown stat sampled without panic")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "ghost.stat") {
			t.Fatalf("panic %v does not name the missing statistic", r)
		}
	}()
	engine.RunAll()
}

// TestSamplerEveryExhaustion: the sample budget is a hard stop — a workload
// that keeps running past it gains no extra rows, and the sampler's last
// row lands exactly at period*maxSamples.
func TestSamplerEveryExhaustion(t *testing.T) {
	reg := NewRegistry()
	c := reg.Scope("m").Counter("n")
	engine := sim.NewEngine()
	var work sim.Handler
	ticks := 0
	work = func(any) {
		c.Inc()
		ticks++
		if ticks < 1000 {
			engine.Schedule(sim.Nanosecond, work, nil)
		}
	}
	engine.Schedule(0, work, nil)
	s := NewSampler(reg, "m.n")
	s.Every(engine, 5*sim.Nanosecond, 4)
	engine.RunAll()
	if ticks != 1000 {
		t.Fatalf("workload stopped early: %d ticks", ticks)
	}
	if s.N() != 4 {
		t.Fatalf("samples = %d, want exactly 4", s.N())
	}
	last, _ := s.Row(3)
	if last != 20*sim.Nanosecond {
		t.Fatalf("last sample at %v, want 20ns", last)
	}
}

// TestTableNaNInfCells: failed sweep points leave NaN/Inf in derived
// metrics; the table must render them and still serialize as valid JSON
// (encoding/json rejects non-finite numbers, so cells go through as their
// rendered strings).
func TestTableNaNInfCells(t *testing.T) {
	tab := NewTable("edge cells", "name", "value")
	tab.AddRow("nan", math.NaN())
	tab.AddRow("posinf", math.Inf(1))
	tab.AddRow("neginf", math.Inf(-1))
	tab.AddRow("finite", 1.5)

	text := tab.String()
	for _, want := range []string{"NaN", "+Inf", "-Inf", "1.5"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}

	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON failed on non-finite cells: %v", err)
	}
	var doc struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON does not re-parse: %v", err)
	}
	if doc.Title != "edge cells" || len(doc.Rows) != 4 {
		t.Fatalf("round-trip lost shape: %+v", doc)
	}
	if doc.Rows[0][1] != "NaN" || doc.Rows[1][1] != "+Inf" || doc.Rows[2][1] != "-Inf" {
		t.Fatalf("non-finite cells mangled: %v", doc.Rows)
	}

	// CSV keeps them too.
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nan,NaN") {
		t.Fatalf("csv:\n%s", buf.String())
	}
}

// TestTableEmptyJSON: an empty table serializes to empty arrays, not null,
// so downstream parsers can index unconditionally.
func TestTableEmptyJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTable("empty").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Contains(s, "null") {
		t.Fatalf("empty table serialized nulls:\n%s", s)
	}
}

// fmtCell is the cell oracle: what AddRow wrote when every cell went
// through fmt.
func fmtCell(c any) string {
	switch c.(type) {
	case float64, float32:
		return fmt.Sprintf("%.4g", c)
	}
	return fmt.Sprintf("%v", c)
}

// TestTableCellsMatchFmt: the strconv cell kinds render exactly as fmt
// did, at every special value and around %.4g's switches between %e and %f
// (exponent < -4 or >= 4 after rounding to four digits).
func TestTableCellsMatchFmt(t *testing.T) {
	cells := []any{
		math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e-4, 9.999e-5, 9.9995e-5, 9.99949e-5, 0.00099995, 1e-5, 0.1, 0.12345, 1, 1.5,
		999.95, 9999, 9999.4, 9999.5, 1e4, -1e4, 12345, 1e21, 1e100, 1.0 / 3, -2.0 / 3,
		0, 1, -1, 42, math.MaxInt, math.MinInt,
		"", "stream", "a,b", "naïve",
		float32(1.0 / 3), int64(7), uint8(9), true, nil, []int{1, 2},
	}
	tab := NewTable("cells")
	tab.AddRow(cells...)
	for i, c := range cells {
		if got, want := tab.Cell(0, i), fmtCell(c); got != want {
			t.Errorf("cell %d (%T %v) = %q, fmt writes %q", i, c, c, got, want)
		}
	}
}

// FuzzTableCell: any float64 (by bit pattern), int and string cell renders
// as fmt renders it.
func FuzzTableCell(f *testing.F) {
	for _, v := range []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324, 9.9995e-5, 9999.5} {
		f.Add(math.Float64bits(v), int64(-1), "x,y")
	}
	f.Fuzz(func(t *testing.T, bits uint64, n int64, s string) {
		cells := []any{math.Float64frombits(bits), int(n), s}
		tab := NewTable("fuzz")
		tab.AddRow(cells...)
		for i, c := range cells {
			if got, want := tab.Cell(0, i), fmtCell(c); got != want {
				t.Fatalf("%T %v rendered %q, fmt writes %q", c, c, got, want)
			}
		}
	})
}

// TestTableCSVMatchesFmt: WriteCSV writes what the fmt-joined rendering
// did, with and without a title.
func TestTableCSVMatchesFmt(t *testing.T) {
	for _, title := range []string{"", "Design-space sweep"} {
		tab := NewTable(title, "app", "width", "ipc", "err")
		tab.AddRow("stream", 1, 0.6261, "")
		tab.AddRow("gups", 8, math.NaN(), "core: sweep gups/x/w8: boom")
		var want strings.Builder
		if title != "" {
			fmt.Fprintf(&want, "# %s\n", title)
		}
		fmt.Fprintln(&want, strings.Join(tab.Columns, ","))
		for i := 0; i < tab.NumRows(); i++ {
			fmt.Fprintln(&want, strings.Join(tab.Row(i), ","))
		}
		var got bytes.Buffer
		if err := tab.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("title %q:\n got %q\nwant %q", title, got.String(), want.String())
		}
	}
}
