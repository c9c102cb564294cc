package core

import (
	"fmt"
	"math"

	"corropt/internal/topology"
)

// SwitchLocal is the state-of-the-art link-disabling policy CorrOpt
// replaces (§5.1): a link may be disabled only if the switch it uplinks
// from keeps at least a fraction sc of its uplinks alive. To guarantee a
// ToR-to-spine capacity constraint of c on a topology with r tiers above
// the ToR level, sc must be c^(1/r) — each stage can independently lose
// paths, so the per-switch fractions multiply along a path. That mapping is
// exactly why the switch-local rule is so conservative (Figure 10b): on a
// three-stage Clos with c=60% each switch must keep √0.6 ≈ 77% of its
// uplinks.
type SwitchLocal struct {
	net *Network
	sc  float64
}

// NewSwitchLocal returns the switch-local checker configured to guarantee a
// global capacity constraint c on net's topology: sc = c^(1/r) with r =
// tiers above the ToR stage.
func NewSwitchLocal(net *Network, c float64) (*SwitchLocal, error) {
	if c < 0 || c > 1 {
		return nil, fmt.Errorf("core: capacity constraint %v out of [0,1]", c)
	}
	r := net.Topology().Tiers()
	if r < 1 {
		return nil, fmt.Errorf("core: topology has no tiers above the ToR stage")
	}
	sc := math.Pow(c, 1/float64(r))
	return &SwitchLocal{net: net, sc: sc}, nil
}

// NewSwitchLocalRaw returns a switch-local checker with an explicit
// per-switch threshold sc, for reproducing Figure 10(a)'s naive sc = c
// configuration.
func NewSwitchLocalRaw(net *Network, sc float64) (*SwitchLocal, error) {
	if sc < 0 || sc > 1 {
		return nil, fmt.Errorf("core: switch threshold %v out of [0,1]", sc)
	}
	return &SwitchLocal{net: net, sc: sc}, nil
}

// SC reports the per-switch keep fraction in use.
func (s *SwitchLocal) SC() float64 { return s.sc }

// CanDisable reports whether link l may be disabled under the switch-local
// rule: the switch whose uplink it is must retain at least ⌈m·sc⌉ active
// uplinks afterwards (equivalently, at most ⌊m·(1-sc)⌋ of m uplinks may be
// down).
func (s *SwitchLocal) CanDisable(l topology.LinkID) bool {
	if s.net.Disabled(l) {
		return true
	}
	sw := s.net.Topology().Switch(s.net.Topology().Link(l).Lower)
	m := len(sw.Uplinks)
	maxDown := int(math.Floor(float64(m) * (1 - s.sc) * (1 + 1e-12)))
	down := 0
	for _, ul := range sw.Uplinks {
		if s.net.Disabled(ul) {
			down++
		}
	}
	return down < maxDown
}

// DisableIfSafe disables l if the switch-local rule allows it and reports
// whether it did.
func (s *SwitchLocal) DisableIfSafe(l topology.LinkID) bool {
	return s.net.disableIf(l, s.CanDisable(l))
}

// Sweep applies the switch-local check to every active corrupting link at
// or above threshold, worst first, disabling those that pass — the re-check
// production systems run when a link is re-enabled. It returns the links it
// disabled.
func (s *SwitchLocal) Sweep(threshold float64) []topology.LinkID {
	return sweep(s.net, s, threshold, nil)
}
