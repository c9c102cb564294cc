package scenario

import (
	"strings"
	"testing"
	"time"
)

func TestParseComments(t *testing.T) {
	src := `# leading comment
{
  # inside an object
  "version": 1, # trailing comment
  "name": "c",
  "horizon": "1d",
  "topology": {"kind": "fattree", "k": 4},
  "runs": [{"name": "a", "policy": "none"}]
}
# closing comment`
	s, err := Parse([]byte(src), "comments")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "c" || s.Horizon != 24*time.Hour {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseDurations(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"30d"`, 30 * 24 * time.Hour},
		{`"1.5d"`, 36 * time.Hour},
		{`"2h45m"`, 2*time.Hour + 45*time.Minute},
		{`"90s"`, 90 * time.Second},
	}
	for _, tc := range cases {
		src := `{"version": 1, "name": "d", "horizon": ` + tc.in + `,
  "topology": {"kind": "fattree", "k": 4},
  "runs": [{"name": "a", "policy": "none"}]}`
		s, err := Parse([]byte(src), "durations")
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if s.Horizon != tc.want {
			t.Fatalf("%s: horizon = %v, want %v", tc.in, s.Horizon, tc.want)
		}
	}
}

func TestParseDepthLimit(t *testing.T) {
	src := strings.Repeat("[", 200) + strings.Repeat("]", 200)
	if _, err := Parse([]byte(src), "deep"); err == nil {
		t.Fatal("deeply nested document accepted")
	} else if !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestParseRejectsInvalidUTF8(t *testing.T) {
	src := []byte(`{"version": 1, "name": "` + string([]byte{0xff, 0xfe}) + `"}`)
	if _, err := Parse(src, "utf8"); err == nil {
		t.Fatal("invalid UTF-8 accepted")
	}
}
