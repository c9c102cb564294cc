package ctlplane

import (
	"bytes"
	"reflect"
	"testing"

	"corropt/internal/netchaos"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// FuzzFaultyFrame round-trips well-formed envelopes through netchaos byte
// mutations (bit flips, truncation, loss) and requires the frame reader to
// either reject the damage or decode the original exactly — never panic,
// never silently misparse a corrupted frame into different content.
func FuzzFaultyFrame(f *testing.F) {
	f.Add(uint32(2), 1e-3, uint64(1))
	f.Add(uint32(9), 0.5, uint64(42))
	f.Add(uint32(0), 0.0, uint64(7))
	f.Add(uint32(3), 2.0, uint64(5)) // a rate the controller rejects must still frame faithfully
	f.Fuzz(func(t *testing.T, link uint32, rate float64, seed uint64) {
		orig := &Envelope{
			Type:   TypeReport,
			Agent:  "fuzz-agent",
			Seq:    uint64(link) + 1,
			Report: &Report{Link: topology.LinkID(link), Rate: rate},
		}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, orig); err != nil {
			t.Fatalf("encode: %v", err)
		}
		mut := netchaos.NewMutator(rngutil.New(seed), netchaos.Config{
			Corrupt: 0.5, Truncate: 0.3, Drop: 0.1,
		})
		pkt, kind := mut.Mutate(buf.Bytes())
		if pkt == nil {
			return // lost in flight; the client's retry covers this
		}
		got, err := ReadMsg(bytes.NewReader(pkt))
		if err != nil {
			return // damage rejected loudly — the required behavior
		}
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("silent misparse after %v fault:\norig: %+v\ngot:  %+v", kind, orig, got)
		}
	})
}
