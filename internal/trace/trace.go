// Package trace reads and writes fault traces as JSON Lines, so generated
// corruption workloads can be stored, shared, and replayed bit-identically
// — the role the production link-corruption traces from Oct–Dec 2016 play
// in the paper's evaluation (§7.1).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/topology"
)

// wireEffect mirrors faults.LinkEffect with stable JSON field names.
type wireEffect struct {
	Link     int32      `json:"link"`
	LossFrom [2]float64 `json:"loss_from,omitempty"`
	TxDecay  [2]float64 `json:"tx_decay,omitempty"`
	Rate     [2]float64 `json:"rate,omitempty"`
}

// wireFault is one trace line.
type wireFault struct {
	ID         int64        `json:"id"`
	Cause      string       `json:"cause"`
	StartNanos int64        `json:"start_ns"`
	Reseatable bool         `json:"reseatable,omitempty"`
	Effects    []wireEffect `json:"effects"`
}

// Write serializes the trace, one fault per line.
func Write(w io.Writer, trace []*faults.Fault) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range trace {
		wf := wireFault{
			ID:         int64(f.ID),
			Cause:      f.Cause.String(),
			StartNanos: int64(f.Start),
			Reseatable: f.Reseatable,
		}
		for _, e := range f.Effects {
			wf.Effects = append(wf.Effects, wireEffect{
				Link:     int32(e.Link),
				LossFrom: [2]float64{float64(e.ExtraLossFrom[0]), float64(e.ExtraLossFrom[1])},
				TxDecay:  [2]float64{float64(e.TxDecay[0]), float64(e.TxDecay[1])},
				Rate:     e.DirectRate,
			})
		}
		if err := enc.Encode(wf); err != nil {
			return fmt.Errorf("trace: encode fault %d: %w", f.ID, err)
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write. Faults are returned in file order;
// Write preserves the generator's time order, so replaying needs no sort.
func Read(r io.Reader) ([]*faults.Fault, error) {
	var out []*faults.Fault
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var wf wireFault
		if err := json.Unmarshal(line, &wf); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		cause, ok := faults.CauseByName(wf.Cause)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown cause %q", lineNo, wf.Cause)
		}
		if len(wf.Effects) == 0 {
			return nil, fmt.Errorf("trace: line %d: fault without effects", lineNo)
		}
		f := &faults.Fault{
			ID:         faults.ID(wf.ID),
			Cause:      cause,
			Start:      time.Duration(wf.StartNanos),
			Reseatable: wf.Reseatable,
		}
		for _, e := range wf.Effects {
			if e.Link < 0 {
				return nil, fmt.Errorf("trace: line %d: negative link id", lineNo)
			}
			f.Effects = append(f.Effects, faults.LinkEffect{
				Link:          topology.LinkID(e.Link),
				ExtraLossFrom: [2]optics.DB{optics.DB(e.LossFrom[0]), optics.DB(e.LossFrom[1])},
				TxDecay:       [2]optics.DB{optics.DB(e.TxDecay[0]), optics.DB(e.TxDecay[1])},
				DirectRate:    e.Rate,
			})
		}
		out = append(out, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}
