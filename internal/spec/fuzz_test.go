package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioSpecParse holds Parse to its public contract on
// arbitrary bytes: it returns a validated spec or an error (never
// panics), and every accepted spec round-trips — the canonical
// encoding reparses to an equal spec and is itself a fixed point.
// Seeded from the checked-in golden specs, the documents under
// testdata/seeds (valid specs the goldens do not cover, and the ones
// only lowering rejects — bench's TestFromSpecRunCannotFail walks the
// same files), plus targeted malformed documents; CI runs a short
// -fuzz smoke on top of the seed corpus.
func FuzzScenarioSpecParse(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "bench", "testdata", "specs", "*.json"),
		filepath.Join("testdata", "seeds", "*.json"),
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		if len(files) == 0 {
			f.Fatalf("no specs match %s to seed the corpus", pattern)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, s := range []string{
		"",
		"{",
		"null",
		"[1,2]",
		`{"spec":1}`,
		`{"spec":2,"name":"x","scenario":"micro"}`,
		`{"spec":1,"name":"x","scenario":"quantum"}`,
		`{"spec":1,"name":"x","scenario":"micro","bogus":true}`,
		`{"spec":1,"name":"x","scenario":"serving","faults":"default"}`,
		`{"spec":1,"name":"x","scenario":"micro","batching":"coalesce:sharedcq","micro":{"profiles":[{"name":"p","policy":"shared-qp"}],"panels":[{"id":"a","title":"t","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}}`,
		`{"spec":1,"name":"x","scenario":"micro","micro":{"profiles":[{"name":"p","policy":"per-thread-qp","update_delta":"-4us"}],"panels":[]}}`,
		`{"spec":1,"name":"x","scenario":"micro","micro":{"profiles":[{"name":"p","policy":"per-thread-qp"}],"panels":[{"id":"a","title":"t","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}} {}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected input: the only other legal outcome
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse accepted a spec that fails Validate: %v", verr)
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not reparse: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("canonical round-trip changed the spec:\n%+v\nvs\n%+v", again, s)
		}
		canon2, err := again.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
	})
}
