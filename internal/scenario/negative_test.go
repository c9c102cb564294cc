package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBadScenarios feeds every file in testdata/bad through Parse (and,
// for the files that parse, Compile) and pins the resulting error
// strings — including their line:col positions — in a single golden.
// A parser change that moves an error, loses its position, or starts
// accepting a malformed file shows up as a golden diff.
func TestBadScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "bad", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("bad-scenario corpus has %d files, want at least 10", len(files))
	}
	sort.Strings(files)

	var b strings.Builder
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(file)
		s, err := Parse(data, base)
		if err == nil {
			_, err = Compile(s)
		}
		if err == nil {
			t.Errorf("%s: malformed scenario accepted", base)
			fmt.Fprintf(&b, "%s: ACCEPTED\n", base)
			continue
		}
		fmt.Fprintf(&b, "%s: %v\n", base, err)
	}

	goldenPath := filepath.Join("testdata", "bad_errors.txt")
	got := []byte(b.String())
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("error strings differ from golden (run with -update):\n%s", diffLines(want, got))
	}
}

// TestErrorsCarryPositions spot-checks that parse errors point at the
// offending token, not just the file. A case with at set also requires the
// input at the reported line:col to begin with at, and, when the message
// quotes a character, that character to be the one there: a syntax error
// names the offending byte, not the start of its token. A case with eof
// set requires the position one past the input's last byte.
func TestErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		file string
		frag string
		at   string
		eof  bool
	}{
		{file: "unknown_field.json", frag: "unknown field", at: `"typo_field"`},
		{file: "duplicate_key.json", frag: "duplicate key", at: `"name"`},
		{file: "negative_event_time.json", frag: "before t=0"},
		{file: "unknown_metric.json", frag: "metric"},
		{file: "bad_version.json", frag: "version"},
		{file: "missing_colon.json", frag: "after object key", at: `"bad"`},
		{file: "trailing_comma_object.json", frag: "object key string", at: "}"},
		{file: "trailing_comma_array.json", frag: "beginning of value", at: "]"},
		{file: "unterminated_string.json", frag: "end of", eof: true},
		{file: "raw_control_char.json", frag: "in string literal", at: "\t"},
		{file: "invalid_escape.json", frag: "escape", at: "w"},
		{file: "unicode_escape_bad_hex.json", frag: "escape", at: "z"},
		{file: "bad_literal_true.json", frag: "literal true", at: "v"},
		{file: "bad_literal_null.json", frag: "literal null", at: ","},
		{file: "number_missing_fraction.json", frag: "decimal point", at: ","},
		{file: "number_lone_minus.json", frag: "numeric literal", at: "}"},
		{file: "number_missing_exponent.json", frag: "exponent", at: "}"},
		{file: "invalid_utf8_string.json", frag: "UTF-8", at: "\xe9"},
		{file: "lone_surrogate.json", frag: "lone surrogate", at: `\ud83d!`},
		{file: "surrogate_bad_pair.json", frag: "lone surrogate", at: `\ud83d\u0041`},
		{file: "trailing_garbage.json", frag: "trailing data", at: "extra"},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", "bad", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Parse(data, tc.file)
		if err == nil {
			t.Errorf("%s: accepted", tc.file)
			continue
		}
		var perr *Error
		if !asScenarioError(err, &perr) {
			t.Errorf("%s: error is %T, want *scenario.Error", tc.file, err)
			continue
		}
		if perr.Line <= 0 || perr.Col <= 0 {
			t.Errorf("%s: error carries no position: %v", tc.file, err)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.file, err, tc.frag)
		}
		if !strings.Contains(err.Error(), tc.file+":") {
			t.Errorf("%s: error %q does not lead with the file name", tc.file, err)
		}
		rest := data[offsetOf(data, perr.Line, perr.Col):]
		if tc.eof && len(rest) != 0 {
			t.Errorf("%s: error %q lies before the end of the input, at %q", tc.file, err, rest)
		}
		if tc.at == "" {
			continue
		}
		if !bytes.HasPrefix(rest, []byte(tc.at)) {
			t.Errorf("%s: error %q points at %.12q, want %q", tc.file, err, rest, tc.at)
		}
		if q := quotedChar(perr.Msg); q != "" && !strings.HasPrefix(tc.at, q) {
			t.Errorf("%s: error %q quotes %q, but the input there is %q", tc.file, err, q, tc.at)
		}
	}
}

// offsetOf returns the byte offset of the 1-based line:col in data.
func offsetOf(data []byte, line, col int) int {
	off := 0
	for ; line > 1; line-- {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	return off + col - 1
}

// quotedRune matches a single-quoted Go character literal.
var quotedRune = regexp.MustCompile(`'(\\.|[^'\\])+'`)

// quotedChar returns the first single-quoted Go character literal in msg,
// unquoted, or "".
func quotedChar(msg string) string {
	q, err := strconv.Unquote(quotedRune.FindString(msg))
	if err != nil {
		return ""
	}
	return q
}

func asScenarioError(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
