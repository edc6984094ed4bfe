package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecParse feeds arbitrary bytes to the spec boundary, the JSON
// the service takes from clients. On every input Parse accepts,
// Parse→Encode→Parse→Encode must be a fixed point and Plan must not
// fail or panic. The corpus is seeded from the checked-in specs. Run
// it with
//
//	go test ./internal/experiment -run '^$' -fuzz FuzzSpecParse -fuzztime 10s
func FuzzSpecParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(specsDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("encoding of an accepted spec is rejected: %v\n%s", err, enc)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n--- first ---\n%s--- second ---\n%s", enc, enc2)
		}
		if _, err := s2.Plan(); err != nil {
			t.Fatalf("accepted spec does not plan: %v", err)
		}
	})
}
