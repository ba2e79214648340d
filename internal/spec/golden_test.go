package spec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenHash pins the content hash of the representative scenario. If
// this test fails, the canonical serialization changed: every key in
// every disk cache and every committed corpus entry is invalidated.
// That can be the right call — but it must be deliberate, so bump
// spec.Version, regenerate with -update, and say so in the changelog.
const goldenHash = "v2-4e2ea8eab9a5b7fad1becf1be3b10019b216c853c7bff1ed45a1cdf6ec58c145"

func TestGoldenScenario(t *testing.T) {
	s := testScenario()
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "representative.json")
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/spec -run Golden -update): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("canonical encoding drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", enc, want)
	}

	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenHash {
		t.Fatalf("scenario hash drifted: got %s want %s", h, goldenHash)
	}

	// The golden file must decode back to the exact scenario.
	dec, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := dec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2 != goldenHash {
		t.Fatalf("decoded golden file hashes to %s, want %s", h2, goldenHash)
	}
}
