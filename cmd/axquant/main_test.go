package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultsAreFig8Spec pins the checked-in Fig. 8 suite to the
// command's defaults, so the flags and the file cannot drift apart.
func TestDefaultsAreFig8Spec(t *testing.T) {
	spec, err := parseSpec(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../testdata/specs/fig8.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("axquant's default spec differs from testdata/specs/fig8.json:\n--- file ---\n%s--- flags ---\n%s", want, got)
	}
}
