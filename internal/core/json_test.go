package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hap/internal/haperr"
)

func TestModelJSONRoundTrip(t *testing.T) {
	m := Figure5Example()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || len(got.Apps) != len(m.Apps) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	wantClose(t, "rate", got.MeanRate(), m.MeanRate(), 1e-12)
}

// A malformed model is a bad parameter (exit 2 in the binaries), whether
// the JSON does not decode or its rates are invalid.
func TestParseModelRejectsInvalid(t *testing.T) {
	for _, doc := range []string{
		`{"Lambda": -1, "Mu": 0.1, "Apps": []}`,
		`{"Bogus": 1}`,
		`not json`,
	} {
		if _, err := ParseModel([]byte(doc)); !errors.Is(err, haperr.ErrBadParameter) {
			t.Errorf("ParseModel(%s): err %v, want ErrBadParameter", doc, err)
		}
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "nope.json")); err == nil ||
		!strings.Contains(err.Error(), "read model") {
		t.Errorf("unexpected error: %v", err)
	}
}
