// Package asm is a two-pass assembler for the machine's Nova-like
// instruction set (see package cpu). It exists so that the programs run by
// the loader, the Executive, and the world-swap examples are real machine
// code rather than mocks — the moral equivalent of the BCPL compiler in the
// paper's system, at far smaller scope.
//
// Syntax, one statement per line:
//
//	; comment                    anything after ';' is ignored
//	LABEL: ...                   define LABEL at the current location
//	.org 0x400                   set the location counter
//	.word 1, LABEL, 'a', .-2     assemble literal words
//	.blk 10                      reserve 10 zero words
//	.txt "hi"                    bytes packed two per word, zero padded
//
//	LDA 0, X      STA 3, @PTR    memory reference: accumulator, address
//	JMP LOOP      JSR @VEC       control transfer
//	ISZ COUNT     DSZ COUNT      increment/decrement and skip on zero
//	ADD 1, 2      SUBZL# 0,0,SZR two-accumulator ALU, with optional
//	                             carry (Z,O,C), shift (L,R,S), no-load (#)
//	                             suffixes and an optional skip operand
//	SYS 3                        trap into the operating system
//	HALT                         SYS 0
//
// Addresses assemble as page-zero references when below 0x100, else
// PC-relative when within reach; "d(2)"/"d(3)" forces index-register
// addressing; a leading '@' sets the indirect bit.
package asm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Word is the assembled unit.
type Word = uint16

// Program is the output of assembly.
type Program struct {
	Origin  Word            // lowest assembled address
	Words   []Word          // contiguous image from Origin
	Entry   Word            // the START label, or Origin
	Symbols map[string]Word // every label
}

// ErrAsm reports an assembly failure; the message carries the line number.
var ErrAsm = errors.New("asm: error")

type statement struct {
	line   int
	label  string
	mnem   string
	args   []string
	loc    Word
	nwords int
}

// Assemble translates source into a Program.
func Assemble(src string) (*Program, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	syms, err := locate(stmts)
	if err != nil {
		return nil, err
	}

	// Pass 2: encode.
	image := map[Word]Word{}
	for i := range stmts {
		st := &stmts[i]
		words, err := encode(st, syms)
		if err != nil {
			return nil, lineErr(st.line, "%v", err)
		}
		for j, w := range words {
			image[st.loc+Word(j)] = w
		}
	}
	if len(image) == 0 {
		return nil, fmt.Errorf("%w: empty program", ErrAsm)
	}

	addrs := make([]int, 0, len(image))
	for a := range image {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	origin := Word(addrs[0])
	span := addrs[len(addrs)-1] - addrs[0] + 1
	out := make([]Word, span)
	for a, w := range image {
		out[a-origin] = w
	}
	entry := origin
	if e, ok := syms["START"]; ok {
		entry = e
	}
	return &Program{Origin: origin, Words: out, Entry: entry, Symbols: syms}, nil
}

// locate is pass 1: it assigns every statement its location and size and
// returns the symbol table.
func locate(stmts []statement) (map[string]Word, error) {
	syms := map[string]Word{}
	loc := Word(0x400) // conventional load point (§5.1: "low memory addresses")
	for i := range stmts {
		st := &stmts[i]
		if st.mnem == ".org" {
			v, err := evalNum(st.args[0])
			if err != nil {
				return nil, lineErr(st.line, "bad .org: %v", err)
			}
			loc = v
		}
		if st.label != "" {
			if _, dup := syms[st.label]; dup {
				return nil, lineErr(st.line, "duplicate label %q", st.label)
			}
			syms[st.label] = loc
		}
		st.loc = loc
		n, err := sizeOf(st)
		if err != nil {
			return nil, lineErr(st.line, "%v", err)
		}
		st.nwords = n
		loc += Word(n)
	}
	return syms, nil
}

// MustAssemble panics on error; for tests and fixed embedded programs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func lineErr(line int, format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrAsm, line, fmt.Sprintf(format, args...))
}

// parse splits source into statements.
func parse(src string) ([]statement, error) {
	var stmts []statement
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := raw
		if j := strings.IndexByte(s, ';'); j >= 0 {
			s = s[:j]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		st := statement{line: line}
		if j := strings.IndexByte(s, ':'); j >= 0 && !strings.ContainsAny(s[:j], " \t\"") {
			st.label = s[:j]
			s = strings.TrimSpace(s[j+1:])
		}
		if s != "" {
			fields := strings.SplitN(s, " ", 2)
			st.mnem = strings.ToUpper(fields[0])
			if strings.HasPrefix(fields[0], ".") {
				st.mnem = strings.ToLower(fields[0])
			}
			if len(fields) > 1 {
				rest := strings.TrimSpace(fields[1])
				if st.mnem == ".txt" {
					st.args = []string{rest}
				} else {
					for _, a := range strings.Split(rest, ",") {
						st.args = append(st.args, strings.TrimSpace(a))
					}
				}
			}
		}
		if st.label == "" && st.mnem == "" {
			continue
		}
		switch st.mnem {
		case ".org", ".blk", ".txt":
			if len(st.args) != 1 {
				return nil, lineErr(line, "%s needs one operand", st.mnem)
			}
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

// sizeOf returns the number of words a statement assembles to.
func sizeOf(st *statement) (int, error) {
	switch st.mnem {
	case "", ".org":
		return 0, nil
	case ".word":
		return len(st.args), nil
	case ".blk":
		n, err := evalNum(st.args[0])
		return int(n), err
	case ".txt":
		s, err := unquote(st.args[0])
		if err != nil {
			return 0, err
		}
		return (len(s) + 1) / 2, nil
	default:
		return 1, nil
	}
}

func unquote(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("bad string %q", s)
	}
	return strconv.Unquote(s)
}

// evalNum parses a bare number (decimal, 0x hex, 0o octal) or char literal.
func evalNum(s string) (Word, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, fmt.Errorf("bad char literal %s", s)
		}
		return Word(body[0]), nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 17)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	w := Word(v)
	if neg {
		w = -w
	}
	return w, nil
}

// evalExpr evaluates NUMBER | SYMBOL | expr(+|-)number | '.'.
func evalExpr(s string, syms map[string]Word, here Word) (Word, error) {
	s = strings.TrimSpace(s)
	// Split at the last top-level + or - (but not a leading sign).
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '+' || s[i] == '-' {
			left, err := evalExpr(s[:i], syms, here)
			if err != nil {
				return 0, err
			}
			right, err := evalNum(s[i+1:])
			if err != nil {
				return 0, err
			}
			if s[i] == '+' {
				return left + right, nil
			}
			return left - right, nil
		}
	}
	if s == "." {
		return here, nil
	}
	if v, ok := syms[s]; ok {
		return v, nil
	}
	return evalNum(s)
}
