// Package snmplite implements a minimal SNMP-like polling protocol over
// UDP, the transport the paper's monitoring pipeline uses to read each
// link's packet, error, and drop counters plus optical power levels every
// 15 minutes (§2). The protocol is a tiny subset of what SNMP GET provides,
// with one operation: a GET naming up to MaxEntries (link, counter) pairs,
// answered by one response carrying a 64-bit value for each, in order. There
// is no GETBULK or table walk; a poller that wants many links packs them
// into one GET (the detector asks for 22 links' four counters per datagram).
//
// Wire format (all integers big-endian):
//
//	request:  magic(2)="CS" ver(1)=2 op(1) reqID(4) count(2)
//	          count × { link(4) counter(2) }            crc32c(4)
//	response: magic(2) ver(1) op(1)|0x80 reqID(4) count(2)
//	          count × { link(4) counter(2) value(8) }   crc32c(4)
//	error:    magic(2) ver(1) op=0xFF reqID(4) code(2) msgLen(2) msg
//	          crc32c(4)
//
// Power levels are encoded as centi-dBm in two's complement inside the
// uint64 value field.
//
// Version 2 appends a CRC-32C trailer over everything before it: this
// monitoring traffic crosses the very links whose corruption it measures
// (§2, §5), and a bit-flipped counter value must be rejected (and the
// datagram retransmitted) rather than silently misread as a different
// error rate. Receivers drop checksum failures like line noise.
package snmplite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Protocol constants.
const (
	Version = 2
	// MaxEntries bounds one request/response so responses stay well under
	// a common 1500-byte MTU: 10 + 90×14 + 4 = 1274 bytes.
	MaxEntries = 90

	magic0 = 'C'
	magic1 = 'S'

	// checksumLen is the CRC-32C trailer appended to every packet.
	checksumLen = 4
)

// crcTable is the Castagnoli polynomial, the same one iSCSI and ext4 use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Op is the operation code of a request.
type Op uint8

const (
	// OpGet fetches the named counters.
	OpGet Op = 1
	// opResponseFlag marks a response to the corresponding request op.
	opResponseFlag = 0x80
	// OpError is the server's failure reply.
	OpError Op = 0xFF
)

// CounterID names one per-link quantity.
type CounterID uint16

const (
	// CounterPacketsUp/Down are total packets per direction.
	CounterPacketsUp CounterID = iota
	CounterPacketsDown
	// CounterErrorsUp/Down are CRC-failed (corrupted) packets.
	CounterErrorsUp
	CounterErrorsDown
	// CounterDropsUp/Down are congestion drops.
	CounterDropsUp
	CounterDropsDown
	// CounterTxPowerLower/Upper and CounterRxPowerLower/Upper are optical
	// power levels in centi-dBm (two's complement).
	CounterTxPowerLower
	CounterTxPowerUpper
	CounterRxPowerLower
	CounterRxPowerUpper

	// NumCounters is the count of defined counter ids.
	NumCounters
)

// String implements fmt.Stringer.
func (c CounterID) String() string {
	names := []string{
		"packets-up", "packets-down", "errors-up", "errors-down",
		"drops-up", "drops-down", "tx-power-lower", "tx-power-upper",
		"rx-power-lower", "rx-power-upper",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("counter-%d", uint16(c))
}

// EncodePower packs a dBm power level into a counter value (centi-dBm,
// two's complement, rounded to the nearest centi-dB — truncation would bias
// negative readings like -3.47 dBm whose centi value is not exactly
// representable).
func EncodePower(dbm float64) uint64 { return uint64(int64(math.Round(dbm * 100))) }

// DecodePower unpacks a counter value produced by EncodePower.
func DecodePower(v uint64) float64 { return float64(int64(v)) / 100 }

// Query names one counter of one link.
type Query struct {
	Link    uint32
	Counter CounterID
}

// Value is one answered query.
type Value struct {
	Query
	Value uint64
}

// Errors returned by the codec.
var (
	ErrTruncated  = errors.New("snmplite: truncated packet")
	ErrBadMagic   = errors.New("snmplite: bad magic")
	ErrBadVersion = errors.New("snmplite: unsupported version")
	ErrTooMany    = errors.New("snmplite: too many entries")
	// ErrChecksum reports a packet whose CRC-32C trailer does not match —
	// the signature of in-flight corruption; receivers treat it as loss.
	ErrChecksum = errors.New("snmplite: checksum mismatch")
)

// RemoteError is an error reply from the server.
type RemoteError struct {
	Code uint16
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("snmplite: server error %d: %s", e.Code, e.Msg)
}

const reqHeaderLen = 10

// appendChecksum grows buf by the CRC-32C trailer over buf[start:], the
// packet being built.
func appendChecksum(buf []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// verifyChecksum checks the trailer over pkt[:body] stored at pkt[body:].
// The caller guarantees len(pkt) >= body+checksumLen.
func verifyChecksum(pkt []byte, body int) error {
	got := crc32.Checksum(pkt[:body], crcTable)
	want := binary.BigEndian.Uint32(pkt[body:])
	if got != want {
		return fmt.Errorf("%w: computed %08x, trailer says %08x", ErrChecksum, got, want)
	}
	return nil
}

// The exported codec functions allocate what they return. Server and Client
// run the append* forms below over buffers they keep across exchanges.

// EncodeRequest serializes a GET request.
func EncodeRequest(reqID uint32, queries []Query) ([]byte, error) {
	return appendRequest(make([]byte, 0, reqHeaderLen+6*len(queries)+checksumLen), reqID, queries)
}

// appendRequest appends a serialized GET request to buf.
func appendRequest(buf []byte, reqID uint32, queries []Query) ([]byte, error) {
	if len(queries) > MaxEntries {
		return nil, ErrTooMany
	}
	start := len(buf)
	buf = appendHeader(buf, OpGet, reqID, len(queries))
	for _, q := range queries {
		buf = binary.BigEndian.AppendUint32(buf, q.Link)
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Counter))
	}
	return appendChecksum(buf, start), nil
}

// appendHeader appends the 10 bytes requests and responses start with.
func appendHeader(buf []byte, op Op, reqID uint32, count int) []byte {
	buf = append(buf, magic0, magic1, Version, byte(op))
	buf = binary.BigEndian.AppendUint32(buf, reqID)
	return binary.BigEndian.AppendUint16(buf, uint16(count))
}

// DecodeRequest parses a GET request, returning its id and queries.
func DecodeRequest(pkt []byte) (reqID uint32, queries []Query, err error) {
	return appendRequestQueries(nil, pkt)
}

// appendRequestQueries is DecodeRequest appending to dst, which comes back
// unchanged with any error.
func appendRequestQueries(dst []Query, pkt []byte) (reqID uint32, queries []Query, err error) {
	if len(pkt) < reqHeaderLen {
		return 0, dst, ErrTruncated
	}
	if pkt[0] != magic0 || pkt[1] != magic1 {
		return 0, dst, ErrBadMagic
	}
	if pkt[2] != Version {
		return 0, dst, ErrBadVersion
	}
	if Op(pkt[3]) != OpGet {
		return 0, dst, fmt.Errorf("snmplite: unexpected op %#x in request", pkt[3])
	}
	reqID = binary.BigEndian.Uint32(pkt[4:])
	n := int(binary.BigEndian.Uint16(pkt[8:]))
	if n > MaxEntries {
		return reqID, dst, ErrTooMany
	}
	body := reqHeaderLen + 6*n
	if len(pkt) < body+checksumLen {
		return reqID, dst, ErrTruncated
	}
	if err := verifyChecksum(pkt, body); err != nil {
		return reqID, dst, err
	}
	if dst == nil {
		dst = make([]Query, 0, n)
	}
	for off := reqHeaderLen; off < body; off += 6 {
		dst = append(dst, Query{
			Link:    binary.BigEndian.Uint32(pkt[off:]),
			Counter: CounterID(binary.BigEndian.Uint16(pkt[off+4:])),
		})
	}
	return reqID, dst, nil
}

// EncodeResponse serializes a GET response.
func EncodeResponse(reqID uint32, values []Value) ([]byte, error) {
	return appendResponse(make([]byte, 0, reqHeaderLen+14*len(values)+checksumLen), reqID, values)
}

// appendResponse appends a serialized GET response to buf.
func appendResponse(buf []byte, reqID uint32, values []Value) ([]byte, error) {
	if len(values) > MaxEntries {
		return nil, ErrTooMany
	}
	start := len(buf)
	buf = appendHeader(buf, OpGet|opResponseFlag, reqID, len(values))
	for _, v := range values {
		buf = binary.BigEndian.AppendUint32(buf, v.Link)
		buf = binary.BigEndian.AppendUint16(buf, uint16(v.Counter))
		buf = binary.BigEndian.AppendUint64(buf, v.Value)
	}
	return appendChecksum(buf, start), nil
}

// EncodeError serializes an error reply.
func EncodeError(reqID uint32, code uint16, msg string) []byte {
	if len(msg) > 256 {
		msg = msg[:256]
	}
	buf := make([]byte, 12+len(msg), 12+len(msg)+checksumLen)
	buf[0], buf[1], buf[2], buf[3] = magic0, magic1, Version, byte(OpError)
	binary.BigEndian.PutUint32(buf[4:], reqID)
	binary.BigEndian.PutUint16(buf[8:], code)
	binary.BigEndian.PutUint16(buf[10:], uint16(len(msg)))
	copy(buf[12:], msg)
	return appendChecksum(buf, 0)
}

// DecodeResponse parses a server reply: either values or a *RemoteError.
func DecodeResponse(pkt []byte) (reqID uint32, values []Value, err error) {
	return appendResponseValues(nil, pkt)
}

// appendResponseValues is DecodeResponse appending to dst, which comes back
// unchanged with any error.
func appendResponseValues(dst []Value, pkt []byte) (reqID uint32, values []Value, err error) {
	if len(pkt) < reqHeaderLen {
		return 0, dst, ErrTruncated
	}
	if pkt[0] != magic0 || pkt[1] != magic1 {
		return 0, dst, ErrBadMagic
	}
	if pkt[2] != Version {
		return 0, dst, ErrBadVersion
	}
	reqID = binary.BigEndian.Uint32(pkt[4:])
	if Op(pkt[3]) == OpError {
		if len(pkt) < 12 {
			return reqID, dst, ErrTruncated
		}
		code := binary.BigEndian.Uint16(pkt[8:])
		msgLen := int(binary.BigEndian.Uint16(pkt[10:]))
		body := 12 + msgLen
		if len(pkt) < body+checksumLen {
			return reqID, dst, ErrTruncated
		}
		if err := verifyChecksum(pkt, body); err != nil {
			return reqID, dst, err
		}
		return reqID, dst, &RemoteError{Code: code, Msg: string(pkt[12:body])}
	}
	if Op(pkt[3]) != OpGet|opResponseFlag {
		return reqID, dst, fmt.Errorf("snmplite: unexpected op %#x in response", pkt[3])
	}
	n := int(binary.BigEndian.Uint16(pkt[8:]))
	if n > MaxEntries {
		return reqID, dst, ErrTooMany
	}
	body := reqHeaderLen + 14*n
	if len(pkt) < body+checksumLen {
		return reqID, dst, ErrTruncated
	}
	if err := verifyChecksum(pkt, body); err != nil {
		return reqID, dst, err
	}
	if dst == nil {
		dst = make([]Value, 0, n)
	}
	for off := reqHeaderLen; off < body; off += 14 {
		dst = append(dst, Value{
			Query: Query{
				Link:    binary.BigEndian.Uint32(pkt[off:]),
				Counter: CounterID(binary.BigEndian.Uint16(pkt[off+4:])),
			},
			Value: binary.BigEndian.Uint64(pkt[off+6:]),
		})
	}
	return reqID, dst, nil
}
