package vet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// JSONDiagnostic is the machine-readable finding shape: module-relative
// slash-separated file path, 1-based position, analyzer and message. The
// same shape serves as the checked-in baseline format, so `altovet -json`
// output can be committed directly as the new baseline.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// JSONDiagnostics converts diagnostics to the machine-readable form, sorted
// by (file, line, analyzer) — stable across runs and across worker
// schedules.
func (m *Module) JSONDiagnostics(diags []Diagnostic) []JSONDiagnostic {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, JSONDiagnostic{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// ReadBaseline loads a baseline file. A missing file is an empty baseline —
// the gate then fails on any finding at all, which is the right default for
// a clean tree.
func ReadBaseline(path string) ([]JSONDiagnostic, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []JSONDiagnostic
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("vet: baseline %s: %w", path, err)
	}
	return out, nil
}

// WriteBaseline writes findings as an indented JSON baseline file.
func WriteBaseline(path string, diags []JSONDiagnostic) error {
	if diags == nil {
		diags = []JSONDiagnostic{}
	}
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baselineKey identifies a finding across line-number drift: edits above a
// legacy finding must not make it read as new, so the key is everything but
// the position.
func baselineKey(d JSONDiagnostic) string {
	return d.File + "\x00" + d.Analyzer + "\x00" + d.Message
}

// CompareBaseline splits current findings into those covered by the baseline
// and those new since it: the baseline is a multiset of (file, analyzer,
// message) keys, each occurrence covering one current occurrence. resolved
// counts baseline entries that no longer fire — the burn-down signal that
// the baseline wants refreshing.
func CompareBaseline(baseline, current []JSONDiagnostic) (fresh []JSONDiagnostic, resolved int) {
	quota := map[string]int{}
	for _, d := range baseline {
		quota[baselineKey(d)]++
	}
	for _, d := range current {
		k := baselineKey(d)
		if quota[k] > 0 {
			quota[k]--
			continue
		}
		fresh = append(fresh, d)
	}
	for _, left := range quota {
		resolved += left
	}
	return fresh, resolved
}
