// Package wire defines the NetClone packet format (paper §3.2) and its
// encoding.
//
// The NetClone header sits between the L4 (UDP) header and the application
// payload. A reserved UDP port tells the switch to apply NetClone
// processing; all other traffic is forwarded by the ordinary L2/L3 routing
// modules untouched.
//
// Encoding and decoding are allocation-free: Header values are
// fixed-size structs, MarshalTo writes into a caller-provided buffer, and
// Unmarshal reads from a byte slice without retaining it (the gopacket
// DecodingLayer discipline from the networking guides).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Port is the reserved L4 (UDP) destination port for NetClone packets.
// The switch applies NetClone processing only to this port (§3.2).
const Port = 9000

// HeaderLen is the encoded size of the NetClone header in bytes.
//
// Layout (big-endian, offsets in bytes):
//
//	0  magic   uint16  0x4E43 ("NC")
//	2  version uint8
//	3  type    uint8   REQ | RESP
//	4  reqID   uint32  switch-assigned sequence number
//	8  grp     uint16  group ID choosing the candidate server pair
//	10 sid     uint16  server ID (dst for clones; src for responses)
//	12 state   uint16  piggybacked server queue length (0 = idle)
//	14 clo     uint8   0 not cloned | 1 cloned original | 2 clone
//	15 idx     uint8   filter-table index chosen by the client
//	16 switchID uint16 multi-rack ToR ownership (§3.7), 0 = unset
//	18 clientID uint16 client identity for TCP-style request IDs (§3.7)
//	20 clientSeq uint32 client-local sequence for TCP-style request IDs
//	24 pktSeq  uint8   packet index within a multi-packet message (§3.7)
//	25 pktTotal uint8  total packets in the message (1 for single-packet)
//	26 payloadLen uint16
//	28 ecn     uint8   congestion-experienced mark (0 = unmarked)
const HeaderLen = 29

// Magic identifies NetClone headers on the wire.
const Magic = 0x4E43

// Version is the current header version.
const Version = 1

// MsgType distinguishes requests from responses.
type MsgType uint8

// Message types (§3.2 TYPE field).
const (
	TypeInvalid MsgType = iota
	TypeReq             // an RPC request
	TypeResp            // an RPC response
)

// String returns the wire mnemonic for the message type.
func (t MsgType) String() string {
	switch t {
	case TypeReq:
		return "REQ"
	case TypeResp:
		return "RESP"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// CloState is the CLO field: whether and how a request was cloned (§3.2).
type CloState uint8

// CLO field values.
const (
	CloNone     CloState = 0 // not cloned
	CloOriginal CloState = 1 // the cloned original request
	CloClone    CloState = 2 // the clone
)

// String returns a mnemonic for the CLO value.
func (c CloState) String() string {
	switch c {
	case CloNone:
		return "none"
	case CloOriginal:
		return "original"
	case CloClone:
		return "clone"
	default:
		return fmt.Sprintf("CloState(%d)", uint8(c))
	}
}

// StateIdle is the STATE field value signalling an empty request queue.
// Any non-zero value is the server's queue length (the RackSched
// integration of §3.7 stores queue lengths instead of binary states; a
// binary deployment simply reports 0 or 1).
const StateIdle = 0

// Header is the decoded NetClone header.
type Header struct {
	Type       MsgType
	ReqID      uint32
	Group      uint16
	SID        uint16
	State      uint16
	Clo        CloState
	Idx        uint8
	SwitchID   uint16
	ClientID   uint16
	ClientSeq  uint32
	PktSeq     uint8
	PktTotal   uint8
	PayloadLen uint16

	// ECN is the congestion-experienced mark: a switch egress port sets
	// it when the packet is enqueued past the marking threshold of the
	// congestion model (internal/congestion). Servers echo the request
	// header into the response unchanged, so a mark picked up on either
	// direction reaches the client — the near-source signal the
	// congestion-reactive schemes act on. 0 means unmarked.
	ECN uint8
}

// Decoding errors.
var (
	ErrTooShort   = errors.New("wire: buffer shorter than NetClone header")
	ErrBadMagic   = errors.New("wire: bad NetClone magic")
	ErrBadVersion = errors.New("wire: unsupported NetClone version")
	ErrBadType    = errors.New("wire: invalid message type")
	ErrBadClo     = errors.New("wire: invalid CLO value")
)

// MarshalTo encodes h into buf, which must be at least HeaderLen bytes.
// It returns the number of bytes written. MarshalTo performs no
// allocation.
func (h *Header) MarshalTo(buf []byte) (int, error) {
	if len(buf) < HeaderLen {
		return 0, ErrTooShort
	}
	binary.BigEndian.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = uint8(h.Type)
	binary.BigEndian.PutUint32(buf[4:8], h.ReqID)
	binary.BigEndian.PutUint16(buf[8:10], h.Group)
	binary.BigEndian.PutUint16(buf[10:12], h.SID)
	binary.BigEndian.PutUint16(buf[12:14], h.State)
	buf[14] = uint8(h.Clo)
	buf[15] = h.Idx
	binary.BigEndian.PutUint16(buf[16:18], h.SwitchID)
	binary.BigEndian.PutUint16(buf[18:20], h.ClientID)
	binary.BigEndian.PutUint32(buf[20:24], h.ClientSeq)
	buf[24] = h.PktSeq
	buf[25] = h.PktTotal
	binary.BigEndian.PutUint16(buf[26:28], h.PayloadLen)
	buf[28] = h.ECN
	return HeaderLen, nil
}

// AppendTo appends the encoded header to buf and returns the extended
// slice.
func (h *Header) AppendTo(buf []byte) []byte {
	var tmp [HeaderLen]byte
	_, _ = h.MarshalTo(tmp[:]) // cannot fail: buffer is exactly HeaderLen
	return append(buf, tmp[:]...)
}

// Unmarshal decodes the header from buf without retaining buf. It
// validates magic, version, message type, and CLO range, and returns the
// number of header bytes consumed.
func (h *Header) Unmarshal(buf []byte) (int, error) {
	if len(buf) < HeaderLen {
		return 0, ErrTooShort
	}
	if binary.BigEndian.Uint16(buf[0:2]) != Magic {
		return 0, ErrBadMagic
	}
	if buf[2] != Version {
		return 0, ErrBadVersion
	}
	t := MsgType(buf[3])
	if t != TypeReq && t != TypeResp {
		return 0, ErrBadType
	}
	clo := CloState(buf[14])
	if clo > CloClone {
		return 0, ErrBadClo
	}
	h.Type = t
	h.ReqID = binary.BigEndian.Uint32(buf[4:8])
	h.Group = binary.BigEndian.Uint16(buf[8:10])
	h.SID = binary.BigEndian.Uint16(buf[10:12])
	h.State = binary.BigEndian.Uint16(buf[12:14])
	h.Clo = clo
	h.Idx = buf[15]
	h.SwitchID = binary.BigEndian.Uint16(buf[16:18])
	h.ClientID = binary.BigEndian.Uint16(buf[18:20])
	h.ClientSeq = binary.BigEndian.Uint32(buf[20:24])
	h.PktSeq = buf[24]
	h.PktTotal = buf[25]
	h.PayloadLen = binary.BigEndian.Uint16(buf[26:28])
	h.ECN = buf[28]
	return HeaderLen, nil
}

// String renders the header for logs and debugging.
func (h *Header) String() string {
	return fmt.Sprintf("%s req=%d grp=%d sid=%d state=%d clo=%s idx=%d sw=%d plen=%d",
		h.Type, h.ReqID, h.Group, h.SID, h.State, h.Clo, h.Idx, h.SwitchID, h.PayloadLen)
}

// LamportID builds the TCP-mode request identifier from the client ID and
// client-local sequence number (§3.7 "we use a tuple of the client ID and
// a local sequence number generated by the client for request IDs like
// Lamport clocks"). It is stable across retransmissions of the same
// request, unlike switch-assigned IDs.
func (h *Header) LamportID() uint64 {
	return uint64(h.ClientID)<<32 | uint64(h.ClientSeq)
}

// IsNetClone reports whether buf plausibly starts with a NetClone header
// (magic and version match) without fully decoding it. The switch uses
// this as the port-based demux check: non-NetClone traffic takes the
// plain L2/L3 path.
func IsNetClone(buf []byte) bool {
	return len(buf) >= 3 &&
		binary.BigEndian.Uint16(buf[0:2]) == Magic &&
		buf[2] == Version
}

// ParseID parses a decimal ID bound for one of the header's 16-bit ID
// fields (SID, ClientID, SwitchID). A value the field cannot hold is an
// error, not a silent wrap: 70000 would otherwise run as 4464.
func ParseID(s string) (uint16, error) {
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("ID %q is not an integer in 0..%d", s, math.MaxUint16)
	}
	return uint16(v), nil
}
