package ctlplane

import (
	"bytes"
	"testing"
)

// FuzzReadMsg ensures arbitrary byte streams never panic the frame reader,
// and that well-formed envelopes round-trip.
func FuzzReadMsg(f *testing.F) {
	var buf bytes.Buffer
	WriteMsg(&buf, &Envelope{Type: TypeReport, Report: &Report{Link: 2, Rate: 1e-3}})
	f.Add(buf.Bytes())
	var buf2 bytes.Buffer
	WriteMsg(&buf2, &Envelope{Type: TypeActivate, Activate: &Activate{Link: 9}})
	f.Add(buf2.Bytes())
	var buf3 bytes.Buffer
	WriteMsg(&buf3, &Envelope{Type: TypeReport, Report: &Report{Link: 2, Rate: -1}}) // out-of-range rate
	f.Add(buf3.Bytes())
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteMsg(&out, msg); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		msg2, err := ReadMsg(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if msg2.Type != msg.Type {
			t.Fatalf("type changed: %q vs %q", msg2.Type, msg.Type)
		}
	})
}
