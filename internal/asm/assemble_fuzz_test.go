package asm

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lineRE matches the line number every statement error carries.
var lineRE = regexp.MustCompile(`^asm: error: line ([0-9]+): `)

// FuzzAssemble feeds the assembler arbitrary source. It must not panic.
// Every error must wrap ErrAsm and name a line of the source that holds a
// statement, except the one a source without a single word earns, which
// has no line to name.
// Every instruction word the assembler emits must survive Disasm and a
// reassembly at its own address unchanged. The seed corpus under
// testdata/fuzz replays in every go test run; go test -fuzz FuzzAssemble
// explores further.
func FuzzAssemble(f *testing.F) {
	f.Add("START: LDA 0, X\n\tADDZL# 1, 2, SZR\n\tJMP @START\nX: .word 7, START, .-2\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			if !errors.Is(err, ErrAsm) {
				t.Fatalf("error %q does not wrap ErrAsm", err)
			}
			if err.Error() == "asm: error: empty program" {
				return
			}
			m := lineRE.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error %q names no line", err)
			}
			lines := strings.Split(src, "\n")
			n, _ := strconv.Atoi(m[1])
			if n < 1 || n > len(lines) {
				t.Fatalf("error %q names a line outside the %d-line source", err, len(lines))
			}
			if code, _, _ := strings.Cut(lines[n-1], ";"); strings.TrimSpace(code) == "" {
				t.Fatalf("error %q names line %d, which holds no statement", err, n)
			}
			return
		}
		if len(p.Words) == 0 {
			t.Fatal("assembled an empty image without an error")
		}

		// Replay the passes to see each instruction's own word, which a
		// later .org may have overwritten in the image.
		stmts, _ := parse(src)
		syms, _ := locate(stmts)
		for i := range stmts {
			st := &stmts[i]
			if st.mnem == "" || strings.HasPrefix(st.mnem, ".") {
				continue
			}
			words, err := encode(st, syms)
			if err != nil || len(words) != 1 {
				t.Fatalf("line %d: %q encodes to %v, %v after assembling cleanly", st.line, st.mnem, words, err)
			}
			text := Disasm(st.loc, words[0])
			q, err := Assemble(fmt.Sprintf(".org %#x\n%s\n", st.loc, text))
			if err != nil || q.Words[0] != words[0] {
				t.Fatalf("line %d: %#04x at %#04x disassembles to %q, which reassembles to %v, %v",
					st.line, words[0], st.loc, text, q, err)
			}
		}
	})
}
