// Package ctlplane implements the control-plane protocol of Figure 13:
// switches (or the monitoring system acting on their behalf) report packet
// corruption to the CorrOpt controller over TCP; the controller answers
// each report with a disable/keep decision from the fast checker, and
// reacts to link-activation notifications by running the optimizer.
//
// Framing is a 4-byte big-endian length, a 4-byte CRC-32C of the body,
// then one JSON-encoded message; message bodies are small and infrequent
// (corruption events, not packets), so readability wins over compactness
// here. The checksum exists because this control traffic crosses the same
// corrupting network the protocol manages (§5–§6): a frame that survives a
// bit-flip must be rejected loudly (the client retries), never silently
// misparsed into a wrong rate or link id.
//
// A frame is one Write (WriteMsg assembles header and body first), so one
// fault on the wire — a lost, duplicated or reset write — strikes one whole
// frame and never leaves an orphan body for the peer to read as a length.
// Each end of a connection reads through one buffered reader that is created
// with the connection and dies with it: header and body come out of a single
// read, a second frame in the same segment is kept for the next ReadMsg, and
// nothing a dead connection delivered survives into its replacement.
// WriteMsg and ReadMsg are the only framing code; the callers arm the
// deadlines around them.
package ctlplane

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"corropt/internal/topology"
)

// MaxFrame bounds one frame to keep a misbehaving peer from ballooning
// memory.
const MaxFrame = 1 << 20

// frameHeaderLen is the length prefix plus the body checksum.
const frameHeaderLen = 8

// connReaderSize is the read buffer each connection end owns for as long as
// the connection lives. Frames are ≈ 100 bytes, so header and body arrive
// in one read; a body larger than the buffer is read straight into its own
// slice, so the size bounds memory per connection, not frame length.
const connReaderSize = 4 << 10

// ErrChecksum reports a frame whose body does not match its CRC-32C — the
// signature of in-flight corruption. Distinguish with errors.Is.
var ErrChecksum = errors.New("ctlplane: frame checksum mismatch")

// crcTable is the Castagnoli polynomial, the same one iSCSI and ext4 use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MsgType discriminates protocol messages.
type MsgType string

const (
	// TypeReport is agent→controller: a link is corrupting.
	TypeReport MsgType = "report"
	// TypeDecision is controller→agent: the disable/keep answer.
	TypeDecision MsgType = "decision"
	// TypeActivate is agent→controller: a repaired link came back.
	TypeActivate MsgType = "activate"
	// TypeActivateResult is controller→agent: links newly disabled by the
	// optimizer in response.
	TypeActivateResult MsgType = "activate-result"
	// TypeStatus is agent→controller: request a state summary.
	TypeStatus MsgType = "status"
	// TypeStatusResult carries the summary.
	TypeStatusResult MsgType = "status-result"
	// TypeError reports a request the controller could not serve.
	TypeError MsgType = "error"
)

// Envelope is the frame body: a type tag plus one non-nil payload field.
// Agent and Seq, when set, make requests idempotent: the controller caches
// the reply per (agent, seq) together with the request it answered, and
// replays it verbatim when a reconnecting client retries that same request
// after its response was lost, instead of re-running side effects like the
// optimizer. The same (agent, seq) carrying a different request is not a
// retry but a restarted agent counting from 1 again; it is served afresh and
// the agent's cached replies are discarded.
type Envelope struct {
	Type MsgType `json:"type"`

	// Agent identifies the reporting client for idempotency and liveness
	// tracking; empty disables both (legacy clients).
	Agent string `json:"agent,omitempty"`
	// Seq is the client's monotonically increasing request number; replies
	// echo it so a client can reject stale responses after a reconnect.
	Seq uint64 `json:"seq,omitempty"`

	Report         *Report         `json:"report,omitempty"`
	Decision       *Decision       `json:"decision,omitempty"`
	Activate       *Activate       `json:"activate,omitempty"`
	ActivateResult *ActivateResult `json:"activate_result,omitempty"`
	Status         *StatusResult   `json:"status,omitempty"`
	Error          string          `json:"error,omitempty"`
}

// Report announces corruption on a link.
type Report struct {
	Link topology.LinkID `json:"link"`
	// Rate is the worst-direction corruption loss rate.
	Rate float64 `json:"rate"`
}

// Decision is the controller's reply to a Report.
type Decision struct {
	Link     topology.LinkID `json:"link"`
	Disabled bool            `json:"disabled"`
	Reason   string          `json:"reason,omitempty"`
	// Recommendation is the suggested repair for the ticket, when the
	// link was disabled; free-form action name.
	Recommendation string `json:"recommendation,omitempty"`
}

// Activate announces a repaired link being brought back.
type Activate struct {
	Link topology.LinkID `json:"link"`
}

// ActivateResult lists the links the optimizer disabled in response.
type ActivateResult struct {
	Disabled []topology.LinkID `json:"disabled"`
}

// StatusResult summarizes the controller's view.
type StatusResult struct {
	Links            int     `json:"links"`
	Disabled         int     `json:"disabled"`
	ActiveCorrupting int     `json:"active_corrupting"`
	WorstToRFraction float64 `json:"worst_tor_fraction"`
	TotalPenalty     float64 `json:"total_penalty"`
	// Agents is the number of live tracked agents; StaleAgents the
	// cumulative count marked stale by liveness sweeps.
	Agents      int `json:"agents,omitempty"`
	StaleAgents int `json:"stale_agents,omitempty"`
}

// WriteMsg frames one envelope and hands it to w in a single Write: header
// and body travel together, so whatever happens to that write — a lost
// segment, a netchaos fault, a peer wake-up — happens to one whole frame.
func WriteMsg(w io.Writer, e *Envelope) error {
	body, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ctlplane: marshal: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("ctlplane: frame of %d bytes exceeds limit", len(body))
	}
	frame := make([]byte, frameHeaderLen+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(body, crcTable))
	copy(frame[frameHeaderLen:], body)
	_, err = w.Write(frame)
	return err
}

// ReadMsg reads one framed envelope, verifying the body checksum. A stream
// that ends cleanly between frames yields io.EOF; one that ends anywhere
// inside a frame yields io.ErrUnexpectedEOF.
func ReadMsg(r io.Reader) (*Envelope, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("ctlplane: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF { // bare by io.Reader's contract; the header promised n more bytes
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got, want := crc32.Checksum(body, crcTable), binary.BigEndian.Uint32(hdr[4:]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, header says %08x", ErrChecksum, got, want)
	}
	var e Envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("ctlplane: unmarshal: %w", err)
	}
	return &e, nil
}
