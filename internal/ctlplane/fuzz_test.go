package ctlplane

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzReadMsg ensures arbitrary byte streams never panic the frame reader,
// that well-formed envelopes round-trip, and that reading through a
// connection's buffered reader changes nothing: data‖data through one
// reader gives the same first result as data alone, and a first frame that
// decodes leaves the reader exactly at the second.
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

		// Everything but running out of bytes is decided by a prefix of data,
		// so the doubled stream must agree; a truncated frame alone borrows
		// its missing bytes from the second copy and may fail differently.
		br := bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(data, 2)), connReaderSize)
		first, ferr := ReadMsg(br)
		truncated := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
		if !truncated && ((ferr == nil) != (err == nil) || !reflect.DeepEqual(first, msg)) {
			t.Fatalf("buffered read of data‖data: (%+v, %v), plain read of data: (%+v, %v)", first, ferr, msg, err)
		}
		if err != nil {
			return
		}
		// When data is exactly one frame the reader must now stand at the
		// start of the second copy, not past bytes it buffered and dropped.
		if len(data) == frameHeaderLen+int(binary.BigEndian.Uint32(data[:4])) {
			second, serr := ReadMsg(br)
			if serr != nil || !reflect.DeepEqual(second, msg) {
				t.Fatalf("second frame through the same reader: (%+v, %v), want %+v", second, serr, msg)
			}
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
