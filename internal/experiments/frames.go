package experiments

import (
	"fmt"

	"corropt/internal/ethernet"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
)

func init() {
	register("frames", "frame-level validation: optical margin → BER → CRC failures → observed loss rate", analytic(frames))
}

// frames validates the corruption model bit for bit: §1 defines corruption
// as decoding errors that fail the Ethernet CRC. For a sweep of optical
// margins we (1) take the margin→loss-rate curve the fault injector uses,
// (2) convert it into a physical bit error rate for MTU frames, (3) push
// real frames through a bit-flipping channel at that BER, and (4) compare
// the loss rate the receiver's CRC counters observe against the model.
func frames(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "frames",
		Title:  "Optical margin → BER → observed CRC failure rate",
		Header: []string{"margin_db", "model_loss_rate", "ber", "frames_sent", "observed_loss_rate", "ratio"},
	}
	rng := rngutil.New(cfg.Seed).Split("frames")

	payload := make([]byte, ethernet.MaxPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	f := &ethernet.Frame{
		Dst: ethernet.MAC{0x02, 0, 0, 0, 0, 1}, Src: ethernet.MAC{0x02, 0, 0, 0, 0, 2},
		EtherType: 0x0800, Payload: payload,
	}
	wire, err := f.Marshal()
	if err != nil {
		return nil, err
	}

	budget := 200000
	if cfg.Scale != ScaleSmall {
		budget = 2000000
	}
	for _, margin := range []float64{-3.5, -4, -4.5, -5, -6} {
		model := optics.CorruptionRateFromMargin(optics.DB(margin))
		if float64(budget)*model < 20 {
			// Not enough frame budget to observe this rate; at small
			// scale the sweep starts deeper below sensitivity.
			continue
		}
		ber := ethernet.BERForLossRate(model, len(wire))
		ch := ethernet.NewChannel(ber, rng.SplitIndex("channel", int(-margin*10)))
		// Send enough frames to expect ≥50 corruption events, capped by
		// the budget.
		n := int(50 / model)
		if n > budget {
			n = budget
		}
		if n < 1000 {
			n = 1000
		}
		for i := 0; i < n; i++ {
			if _, err := ch.Receive(ch.Transmit(wire)); err != nil && err != ethernet.ErrBadFCS {
				return nil, err
			}
		}
		observed := ch.ObservedLossRate()
		ratio := 0.0
		if model > 0 {
			ratio = observed / model
		}
		r.AddRow(fmt.Sprintf("%.1f", margin), fmtF(model), fmtF(ber),
			fmt.Sprintf("%d", n), fmtF(observed), fmtF(ratio))
	}
	r.AddNote("the ratio column should hover around 1: the abstract loss-rate model and the concrete bit-flipping channel agree")
	r.AddNote("frame size %d bytes on the wire (MTU payload + header + FCS); CRC-32 catches every injected error pattern", len(wire))
	return r, nil
}
