package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"corropt/internal/topology"
)

// This file persists a Network's mutable state — disabled links, corruption
// records, per-ToR constraints — so a controller restart (or a failover to
// a standby) resumes exactly where the previous instance stopped instead of
// re-enabling every disabled link into a corruption storm.

// stateFile is the on-disk representation.
type stateFile struct {
	// Fingerprint guards against loading state for a different topology.
	Fingerprint uint64 `json:"fingerprint"`
	// Disabled lists administratively-down links.
	Disabled []topology.LinkID `json:"disabled"`
	// Corruption maps links to recorded worst-direction rates.
	Corruption map[topology.LinkID]float64 `json:"corruption"`
	// Constraints maps ToR names to their capacity thresholds.
	Constraints map[string]float64 `json:"constraints"`
}

// fingerprint hashes the topology's structure (switch names in id order and
// link endpoints), so state saved against one fabric cannot be misapplied
// to another.
func fingerprint(t *topology.Topology) uint64 {
	h := fnv.New64a()
	t.Switches(func(s *topology.Switch) {
		h.Write([]byte(s.Name))
		h.Write([]byte{byte(s.Stage), 0})
	})
	var buf [8]byte
	t.Links(func(l *topology.Link) {
		putUint32(buf[:4], uint32(l.Lower))
		putUint32(buf[4:], uint32(l.Upper))
		h.Write(buf[:])
	})
	return h.Sum64()
}

func putUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// SaveState serializes the network's mutable state as JSON.
func (n *Network) SaveState(w io.Writer) error {
	sf := stateFile{
		Fingerprint: fingerprint(n.topo),
		Corruption:  make(map[topology.LinkID]float64),
		Constraints: make(map[string]float64),
	}
	n.DisabledLinks().Each(func(l topology.LinkID) {
		sf.Disabled = append(sf.Disabled, l)
	})
	corrupting := n.links.Corrupting()
	for l := corrupting.Next(); l != topology.NoLink; l = corrupting.Next() {
		sf.Corruption[l] = n.links.Rate(l)
	}
	for _, tor := range n.topo.ToRs() {
		sf.Constraints[n.topo.Switch(tor).Name] = n.tors.Constraint(tor)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sf)
}

// LoadState restores state saved by SaveState onto a network over the same
// topology, replacing the current disabled set, corruption records, and
// ToR constraints.
func (n *Network) LoadState(r io.Reader) error {
	var sf stateFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return fmt.Errorf("core: decode state: %w", err)
	}
	if sf.Fingerprint != fingerprint(n.topo) {
		return fmt.Errorf("core: state fingerprint %x does not match this topology (%x)",
			sf.Fingerprint, fingerprint(n.topo))
	}
	// Clear corruption records through SetCorruption, which keeps the link
	// index and, with a registered penalty function, the incremental
	// contribution cache in sync with the rates. Clearing l removes it from
	// the set being walked, which the iterator allows for a link already
	// returned.
	corrupting := n.links.Corrupting()
	for l := corrupting.Next(); l != topology.NoLink; l = corrupting.Next() {
		n.SetCorruption(l, 0)
	}
	for _, l := range sf.Disabled {
		if int(l) < 0 || int(l) >= n.topo.NumLinks() {
			return fmt.Errorf("core: state references unknown link %d", l)
		}
	}
	// Replace the disabled set wholesale: one incremental re-sweep rebuilds
	// counts and per-ToR constraint status.
	n.resetState(sf.Disabled)
	// Apply corruption records and constraints in sorted key order so that
	// partial application and error selection on invalid input are
	// deterministic, not map-iteration-ordered.
	links := make([]topology.LinkID, 0, len(sf.Corruption))
	for l := range sf.Corruption {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		rate := sf.Corruption[l]
		if int(l) < 0 || int(l) >= n.topo.NumLinks() {
			return fmt.Errorf("core: state references unknown link %d", l)
		}
		if rate < 0 || rate > 1 {
			return fmt.Errorf("core: state has invalid rate %v for link %d", rate, l)
		}
		n.SetCorruption(l, rate)
	}
	names := make([]string, 0, len(sf.Constraints))
	for name := range sf.Constraints {
		names = append(names, name)
	}
	sort.Strings(names)
	tors := make(map[string]topology.SwitchID, len(n.topo.ToRs()))
	for _, tor := range n.topo.ToRs() {
		tors[n.topo.Switch(tor).Name] = tor
	}
	for _, name := range names {
		id, ok := tors[name]
		if !ok {
			return fmt.Errorf("core: state references unknown ToR %q", name)
		}
		if err := n.SetToRConstraint(id, sf.Constraints[name]); err != nil {
			return err
		}
	}
	return nil
}
