// Command sst-asm assembles, disassembles and executes SR1 programs — the
// execution-driven front-end's ISA.
//
// Usage:
//
//	sst-asm [-run] [-max N] [-regs] [-format table|json|csv]
//	        [-trace-out t.json] [-trace-cap N] [-metrics-out m.json] program.s
//
// Without -run the assembled program is disassembled to stdout. With -run
// the program executes functionally (no timing) for at most -max
// instructions and reports the retired count; -regs also dumps nonzero
// registers. -trace-out single-steps the machine and records one span per
// instruction (pseudo-time = instruction index) into a Chrome trace_event
// file; -metrics-out writes {instructions, host_seconds, mips} JSON.
//
// Exit codes: 0 success, 1 failure, 2 configuration error (bad usage,
// format, source file or assembly error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/isa"
	"sst/internal/obs"
	"sst/internal/sim"
	"sst/internal/stats"
)

func main() {
	var (
		runFlag    = flag.Bool("run", false, "execute the program functionally")
		maxFlag    = flag.Uint64("max", 100_000_000, "instruction budget for -run")
		regsFlag   = flag.Bool("regs", false, "dump nonzero registers after -run")
		formatFlag = flag.String("format", "table", "output format: table, json or csv")
		traceOut   = flag.String("trace-out", "", "write a per-instruction trace (Chrome JSON; CSV if path ends in .csv)")
		traceCap   = flag.Int("trace-cap", 0, "trace ring capacity in spans (0 = default)")
		metricsOut = flag.String("metrics-out", "", "write run metrics JSON to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sst-asm [-run] [-max N] [-regs] [-format f] [-trace-out t] [-metrics-out m] program.s")
		os.Exit(cli.ExitConfig)
	}
	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		cli.Exit("sst-asm", cli.Configf("%v", err))
	}
	cli.Exit("sst-asm", run(flag.Arg(0), *runFlag, *maxFlag, *regsFlag, format, *traceOut, *traceCap, *metricsOut))
}

func run(path string, execute bool, maxInstrs uint64, dumpRegs bool, format core.Format, traceOut string, traceCap int, metricsOut string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return cli.Configf("%v", err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		return cli.Configf("%v", err)
	}
	if !execute {
		text, err := prog.Disassemble()
		if err != nil {
			return err
		}
		fmt.Print(text)
		if len(prog.Labels) > 0 {
			fmt.Println("\nlabels:")
			for name, addr := range prog.Labels {
				fmt.Printf("  %-16s %#x\n", name, addr)
			}
		}
		return nil
	}
	m := isa.NewMachine(prog)
	var (
		n      uint64
		tracer *obs.Tracer
	)
	hostStart := time.Now()
	if traceOut == "" {
		n, err = m.Run(maxInstrs)
		if err != nil {
			return err
		}
	} else {
		// Single-step so each instruction becomes one trace span. The
		// functional machine has no clock, so the span's "time" axis is
		// the instruction index.
		tracer = obs.NewTracer(traceCap)
		for n < maxInstrs && !m.Halted() {
			stepStart := time.Now()
			info, err := m.Step()
			if err != nil {
				return err
			}
			tracer.Event(sim.Time(n), fmt.Sprintf("pc=%#x", info.PC), time.Since(stepStart))
			n++
		}
	}
	hostSecs := time.Since(hostStart).Seconds()
	if tracer != nil {
		write := tracer.WriteChromeJSON
		if strings.HasSuffix(traceOut, ".csv") {
			write = tracer.WriteCSV
		}
		if err := cli.WriteFile(traceOut, write); err != nil {
			return err
		}
	}
	mips := 0.0
	if hostSecs > 0 {
		mips = float64(n) / hostSecs / 1e6
	}
	if metricsOut != "" {
		if err := cli.WriteFile(metricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Instructions uint64  `json:"instructions"`
				HostSeconds  float64 `json:"host_seconds"`
				MIPS         float64 `json:"mips"`
			}{n, hostSecs, mips})
		}); err != nil {
			return err
		}
	}
	status := "halted"
	if !m.Halted() {
		status = "budget exhausted"
	}
	switch format {
	case core.FormatJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Status       string  `json:"status"`
			Instructions uint64  `json:"instructions"`
			PC           uint64  `json:"pc"`
			HostSeconds  float64 `json:"host_seconds"`
			MIPS         float64 `json:"mips"`
		}{status, n, uint64(m.PC), hostSecs, mips}); err != nil {
			return err
		}
	case core.FormatCSV:
		t := stats.NewTable("SR1 run", "metric", "value")
		t.AddRow("status", status)
		t.AddRow("instructions", n)
		t.AddRow("pc", fmt.Sprintf("%#x", m.PC))
		t.AddRow("host_seconds", hostSecs)
		t.AddRow("mips", mips)
		if err := t.WriteCSV(os.Stdout); err != nil {
			return err
		}
	default:
		fmt.Printf("%s after %d instructions (pc=%#x)\n", status, n, m.PC)
	}
	if dumpRegs {
		for r := 1; r < 32; r++ {
			if v := m.Reg(r); v != 0 {
				fmt.Printf("  r%-2d = %#x (%d)\n", r, v, int64(v))
			}
		}
	}
	return nil
}
