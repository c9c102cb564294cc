// Package optics models the optical layer of data center links: transceiver
// technologies with transmit/receive power levels and thresholds, fiber
// attenuation, and the mapping between optical margin and packet corruption.
//
// §4 of the paper diagnoses corruption root causes almost entirely from
// TxPower/RxPower symptoms; this package produces those symptoms. Power is
// expressed in dBm and losses in dB, matching how transceivers report via
// digital optical monitoring.
package optics

import "math"

// DBm is an absolute optical power level in decibel-milliwatts.
type DBm float64

// DB is a relative power difference in decibels.
type DB float64

// Technology describes one transceiver/fiber technology. The deployed
// recommendation engine (§7.2) initially used a single global RxPower
// threshold because per-technology data was unavailable; the full design
// (§5.2) keys thresholds by technology, which this type enables.
type Technology struct {
	// Name identifies the technology, e.g. "40G-LR4".
	Name string
	// NominalTx is the healthy transmitter launch power.
	NominalTx DBm
	// TxThreshold is PowerThreshTx: transmit power below this indicates a
	// decaying transmitter (root cause 3).
	TxThreshold DBm
	// RxThreshold is PowerThreshRx: receive power below this indicates an
	// optical-path problem (contamination or fiber damage).
	RxThreshold DBm
	// PathLoss is the loss budget of a healthy fiber path end to end.
	PathLoss DB
}

// DefaultTechnologies returns a representative set of optical technologies
// with thresholds in the ranges typical for data center transceivers.
func DefaultTechnologies() []Technology {
	return []Technology{
		{Name: "10G-SR", NominalTx: -1.0, TxThreshold: -5.0, RxThreshold: -9.9, PathLoss: 2.0},
		{Name: "40G-LR4", NominalTx: 1.0, TxThreshold: -3.0, RxThreshold: -11.5, PathLoss: 3.0},
		{Name: "100G-CWDM4", NominalTx: 0.5, TxThreshold: -4.0, RxThreshold: -10.0, PathLoss: 3.5},
	}
}

// EvalTech is the 40G-LR4 profile the evaluation simulates with: every
// experiment driver and every declarative scenario replays its traces over
// it. Its thresholds are rounder than DefaultTechnologies' 40G-LR4 entry.
func EvalTech() Technology {
	return Technology{Name: "40G-LR4", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

// Side selects one end of a bidirectional link.
type Side int

const (
	// LowerSide is the end at the lower (ToR-ward) switch.
	LowerSide Side = iota
	// UpperSide is the end at the upper (spine-ward) switch.
	UpperSide
)

// Opposite returns the other side.
func (s Side) Opposite() Side {
	if s == LowerSide {
		return UpperSide
	}
	return LowerSide
}

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == LowerSide {
		return "lower"
	}
	return "upper"
}

// Link models the optical state of one bidirectional link: a transmitter on
// each side and per-direction excess path loss. The Up direction carries
// light from the LowerSide transmitter to the UpperSide receiver.
type Link struct {
	tech Technology
	// tx holds the current transmit power per side.
	tx [2]DBm
	// extraLoss holds excess attenuation beyond the healthy budget per
	// direction, indexed by the transmitting side: extraLoss[LowerSide]
	// affects the Lower→Upper (up) direction.
	extraLoss [2]DB
}

// NewLink returns a healthy link of the given technology: both transmitters
// at nominal power and no excess loss.
func NewLink(tech Technology) *Link {
	return &Link{tech: tech, tx: [2]DBm{tech.NominalTx, tech.NominalTx}}
}

// Tech returns the link's technology.
func (l *Link) Tech() Technology { return l.tech }

// TxPower reports the transmit power at the given side.
func (l *Link) TxPower(s Side) DBm { return l.tx[s] }

// RxPower reports the receive power at the given side: the opposite side's
// transmit power minus the healthy path loss and any excess loss in that
// direction.
func (l *Link) RxPower(s Side) DBm {
	from := s.Opposite()
	return l.tx[from] - DBm(l.tech.PathLoss) - DBm(l.extraLoss[from])
}

// SetTxPower overrides the transmit power at side s (decaying transmitter,
// root cause 3).
func (l *Link) SetTxPower(s Side, p DBm) { l.tx[s] = p }

// AddLoss adds excess attenuation to the direction transmitted from side s
// (contamination affects one direction; fiber damage both).
func (l *Link) AddLoss(fromSide Side, loss DB) { l.extraLoss[fromSide] += loss }

// SetLoss sets the excess attenuation for the direction transmitted from
// side s.
func (l *Link) SetLoss(fromSide Side, loss DB) { l.extraLoss[fromSide] = loss }

// Reset restores the link to its healthy state.
func (l *Link) Reset() {
	l.tx = [2]DBm{l.tech.NominalTx, l.tech.NominalTx}
	l.extraLoss = [2]DB{}
}

// ResetTech reassigns the link's technology and restores the healthy state
// for it — equivalent to NewLink(tech) in place, so pooled simulation
// scratch can re-dress a recycled link for a different fabric.
func (l *Link) ResetTech(tech Technology) {
	l.tech = tech
	l.Reset()
}

// TxLow reports whether side s transmits below the technology threshold.
func (l *Link) TxLow(s Side) bool { return l.tx[s] < l.tech.TxThreshold }

// RxLow reports whether side s receives below the technology threshold.
func (l *Link) RxLow(s Side) bool { return l.RxPower(s) < l.tech.RxThreshold }

// Margin reports how far above the receive threshold side s is; negative
// margins mean the receiver is starved of light.
func (l *Link) Margin(s Side) DB { return DB(l.RxPower(s) - l.tech.RxThreshold) }

// CorruptionRateFromMargin maps an optical margin to a packet corruption
// rate. Receivers with positive margin decode essentially perfectly (below
// the 1e-8 lossy threshold of §2); as the margin goes negative the bit error
// rate — and with 64b/66b style coding, the frame corruption rate — climbs
// steeply, saturating at total loss. The exact curve is transceiver
// specific; this one reproduces the qualitative behaviour RAIL and §4
// describe: a sharp cliff below sensitivity.
func CorruptionRateFromMargin(margin DB) float64 {
	if margin >= 0 {
		// Healthy: comfortably below the lossy-link floor.
		return 1e-9 * math.Pow(10, -float64(margin)/3)
	}
	// Each dB below sensitivity costs roughly 1.5 orders of magnitude,
	// starting from the 1e-9 floor; the 1e-8 lossy threshold of §2 is
	// crossed about 0.67 dB below sensitivity, so a slightly starved
	// receiver shows low RxPower without yet being classified lossy.
	rate := 1e-9 * math.Pow(10, -1.5*float64(margin))
	if rate > 1 {
		return 1
	}
	return rate
}

// CorruptionRate reports the corruption rate experienced by frames received
// at side s, derived from that receiver's optical margin.
func (l *Link) CorruptionRate(s Side) float64 {
	return CorruptionRateFromMargin(l.Margin(s))
}
