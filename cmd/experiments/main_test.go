package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

// TestQuickSweepRuns is the end-to-end smoke test for the full experiment
// harness: the -quick sweep must complete without error and emit every
// section of DESIGN.md §4.
func TestQuickSweepRuns(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), &sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, section := range []string{
		"T1 —", "T2 —", "T3 —", "E1 —", "C1 —", "C2 —",
		"F1 —", "F2 —", "F3 —", "X1 —", "X2 —",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("missing section %q", section)
		}
	}
}

// TestStandardSweepMatchesExperiments runs the standard sweep and
// compares it byte for byte with EXPERIMENTS.md's first fenced block, so
// the committed tables cannot drift from what the harness prints.
// Regenerate the block with `go run ./cmd/experiments -out <file>`.
func TestStandardSweepMatchesExperiments(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "```\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block")
	}
	want, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatal("EXPERIMENTS.md's first fenced block is not closed")
	}
	var sb strings.Builder
	if err := run(context.Background(), &sb, false); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("sweep output differs from EXPERIMENTS.md's first block at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

func TestSeq(t *testing.T) {
	got := seq(3, 9, 2)
	want := []int{3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("seq = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seq = %v, want %v", got, want)
		}
	}
}

var _ io.Writer = (*strings.Builder)(nil)
