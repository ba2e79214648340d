package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestMacroFixedTickEquivalence is the macro-stepping engine's
// non-negotiable: every registered artifact — the full paper suite plus
// every extension, including the faulted (ext-faults, ext-crashes),
// partitioned (ext-partitions), fleet and backend scenarios — must render
// byte-identical whether the engines inside advance event-to-event or
// walk the fixed 100µs tick grid. It is the companion of
// TestAllParallelDeterminism: that one pins the scheduler, this one pins
// the integrator.
func TestMacroFixedTickEquivalence(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("dual-mode full-suite sweep is expensive")
	}
	render := func(fixed bool) []*Artifact {
		opts := quickOpts()
		opts.FixedTick = fixed
		// Both passes run with checkpoint/fork prefix reuse enabled, so
		// this oracle also pins that forking preserves macro/fixed-tick
		// equivalence across the whole suite.
		opts.Forking = true
		arts, err := All(opts)
		if err != nil {
			t.Fatalf("All(FixedTick=%v): %v", fixed, err)
		}
		return arts
	}
	assertSameRenders(t, "macro", render(false), "fixed-tick", render(true))
}

// assertSameRenders fails t for every registry artifact whose render
// differs between two All passes.
func assertSameRenders(t *testing.T, nameA string, a []*Artifact, nameB string, b []*Artifact) {
	t.Helper()
	if len(a) != len(Artifacts) || len(b) != len(Artifacts) {
		t.Fatalf("artifact counts %d and %d, want %d", len(a), len(b), len(Artifacts))
	}
	for i, g := range Artifacts {
		if ra, rb := a[i].Render(), b[i].Render(); ra != rb {
			t.Errorf("%s differs between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				g.ID, nameA, nameB, nameA, ra, nameB, rb)
		}
	}
}

// TestSampleOutputGolden pins docs/sample-output.txt to the exact stdout
// of `go run ./cmd/experiments`: the registry rendered at the command's
// defaults on a fresh runner, one Render() plus newline per artifact.
func TestSampleOutputGolden(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("full-suite render is expensive")
	}
	const path = "../../docs/sample-output.txt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{RunSeconds: 12, Reps: 3, Seed: 1}.WithRunner(NewRunner(0))
	var got bytes.Buffer
	for _, g := range Artifacts {
		art, err := g.Fn(opts)
		if err != nil {
			t.Fatalf("%s: %v", g.ID, err)
		}
		got.WriteString(art.Render() + "\n")
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
			line++
		}
		at := func(l []string) string {
			if line < len(l) {
				return l[line]
			}
			return "<EOF>"
		}
		t.Fatalf("%s is stale at line %d:\n got: %s\nwant: %s\nregenerate with: go run ./cmd/experiments > docs/sample-output.txt",
			path, line+1, at(gl), at(wl))
	}
}
