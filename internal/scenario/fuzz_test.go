package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioParse drives the strict parser with arbitrary bytes. The
// contract under fuzzing: never a panic; parsing is a function of the bytes
// alone (a second parse is deeply equal to the first); and every rejection
// is a *Error pointing inside the input — a 1-based line that exists and a
// byte column no further than one past that line's end.
func FuzzScenarioParse(f *testing.F) {
	for _, dir := range []string{filepath.Join("..", "..", "scenarios"), filepath.Join("testdata", "bad")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`# comment only`))
	f.Add([]byte(`{"version": 1, "name": "f", "horizon": "1d",
  "topology": {"kind": "fattree", "k": 4},
  "runs": [{"name": "a", "policy": "none"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data, "fuzz")
		s2, err2 := Parse(data, "fuzz")
		if !reflect.DeepEqual(s, s2) || !reflect.DeepEqual(err, err2) {
			t.Fatalf("two parses differ\ninput: %q\nfirst:  %+v, %v\nsecond: %+v, %v", data, s, err, s2, err2)
		}
		if err == nil {
			return
		}
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("rejection is %T, want *scenario.Error: %v\ninput: %q", err, err, data)
		}
		lines := bytes.Split(data, []byte("\n"))
		if perr.Line < 1 || perr.Line > len(lines) || perr.Col < 1 || perr.Col > len(lines[perr.Line-1])+1 {
			t.Fatalf("error position %d:%d lies outside the input: %v\ninput: %q", perr.Line, perr.Col, err, data)
		}
	})
}
