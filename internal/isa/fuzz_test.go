package isa

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// FuzzAssemble: sst-asm feeds Assemble user files, so arbitrary source must
// produce an "isa: line N: …" error or a Program that disassembles — never a
// panic or an allocation the source's own length does not justify. Seeded
// with the two one-line inputs that used to panic and with every program the
// package's tests assemble (the raw string literals of isa_test.go).
func FuzzAssemble(f *testing.F) {
	f.Add(".org")
	f.Add(".space x, 9000000000000000000\n halt\n")
	tests, err := os.ReadFile("isa_test.go")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range regexp.MustCompile("(?s)`([^`]*)`").FindAllSubmatch(tests, -1) {
		f.Add(string(m[1]))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "isa: line ") {
				t.Fatalf("error without a line number: %v", err)
			}
			return
		}
		if _, err := p.Disassemble(); err != nil {
			t.Fatalf("assembled program does not disassemble: %v", err)
		}
	})
}

// TestAssembleDirectiveBounds pins the two fixes as plain tests: a bare
// .org and an oversized (or int64-overflowing) .space are line-numbered
// errors, and the .space limit is the program's total.
func TestAssembleDirectiveBounds(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{".org", "isa: line 1: .org needs exactly one address"},
		{"nop\n.org 1, 2", "isa: line 2: .org must appear once"},
		{".org 1, 2", "isa: line 1: .org needs exactly one address"},
		{".space x, 9000000000000000000\n halt\n", "isa: line 1: .space 9000000000000000000 exceeds"},
		{".space x, 9223372036854775807", "isa: line 1: .space 9223372036854775807 exceeds"},
		{".space a, 1048576\n.space b, 1", "isa: line 2: .space 1 exceeds"},
	} {
		_, err := Assemble(tc.src)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Assemble(%q) = %v, want error %q…", tc.src, err, tc.want)
		}
	}
	if _, err := Assemble(".space a, 1048576\nhalt"); err != nil {
		t.Errorf(".space at the limit rejected: %v", err)
	}
}
