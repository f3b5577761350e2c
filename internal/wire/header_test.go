package wire

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func sampleHeader() Header {
	return Header{
		Type:       TypeReq,
		ReqID:      0xDEADBEEF,
		Group:      17,
		SID:        3,
		State:      2,
		Clo:        CloOriginal,
		Idx:        1,
		SwitchID:   7,
		ClientID:   12,
		ClientSeq:  99,
		PktSeq:     0,
		PktTotal:   1,
		PayloadLen: 64,
	}
}

func TestRoundTrip(t *testing.T) {
	h := sampleHeader()
	var buf [HeaderLen]byte
	n, err := h.MarshalTo(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if n != HeaderLen {
		t.Fatalf("MarshalTo wrote %d bytes, want %d", n, HeaderLen)
	}
	var got Header
	m, err := got.Unmarshal(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if m != HeaderLen {
		t.Fatalf("Unmarshal consumed %d bytes, want %d", m, HeaderLen)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: encode-then-decode is identity for every valid header.
	f := func(reqID uint32, grp, sid, state, swid, cid uint16, idx, pseq, ptot uint8, cseq uint32, plen uint16, typSel, cloSel uint8) bool {
		h := Header{
			Type:       []MsgType{TypeReq, TypeResp}[typSel%2],
			ReqID:      reqID,
			Group:      grp,
			SID:        sid,
			State:      state,
			Clo:        CloState(cloSel % 3),
			Idx:        idx,
			SwitchID:   swid,
			ClientID:   cid,
			ClientSeq:  cseq,
			PktSeq:     pseq,
			PktTotal:   ptot,
			PayloadLen: plen,
		}
		var buf [HeaderLen]byte
		if _, err := h.MarshalTo(buf[:]); err != nil {
			return false
		}
		var got Header
		if _, err := got.Unmarshal(buf[:]); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendTo(t *testing.T) {
	h := sampleHeader()
	prefix := []byte{1, 2, 3}
	out := h.AppendTo(prefix)
	if len(out) != 3+HeaderLen {
		t.Fatalf("AppendTo length = %d, want %d", len(out), 3+HeaderLen)
	}
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("AppendTo clobbered prefix")
	}
	var got Header
	if _, err := got.Unmarshal(out[3:]); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("AppendTo round trip mismatch")
	}
}

func TestMarshalShortBuffer(t *testing.T) {
	h := sampleHeader()
	if _, err := h.MarshalTo(make([]byte, HeaderLen-1)); err != ErrTooShort {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	h := sampleHeader()
	var good [HeaderLen]byte
	if _, err := h.MarshalTo(good[:]); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(b []byte)
		want   error
	}{
		{"short", nil, ErrTooShort},
		{"magic", func(b []byte) { b[0] = 0xFF }, ErrBadMagic},
		{"version", func(b []byte) { b[2] = 99 }, ErrBadVersion},
		{"type zero", func(b []byte) { b[3] = 0 }, ErrBadType},
		{"type high", func(b []byte) { b[3] = 200 }, ErrBadType},
		{"clo", func(b []byte) { b[14] = 3 }, ErrBadClo},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf := append([]byte(nil), good[:]...)
			if c.mutate == nil {
				buf = buf[:HeaderLen-1]
			} else {
				c.mutate(buf)
			}
			var got Header
			if _, err := got.Unmarshal(buf); err != c.want {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	// Property: arbitrary bytes never panic the decoder.
	f := func(raw []byte) bool {
		var h Header
		_, _ = h.Unmarshal(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalDoesNotMutateOnError(t *testing.T) {
	// A failed decode must leave the header untouched so callers can reuse
	// a preallocated Header across packets.
	h := sampleHeader()
	orig := h
	bad := make([]byte, HeaderLen)
	if _, err := h.Unmarshal(bad); err == nil {
		t.Fatal("expected decode error")
	}
	if h != orig {
		t.Fatal("failed Unmarshal mutated the header")
	}
}

func TestIsNetClone(t *testing.T) {
	h := sampleHeader()
	var buf [HeaderLen]byte
	_, _ = h.MarshalTo(buf[:])
	if !IsNetClone(buf[:]) {
		t.Fatal("IsNetClone(valid) = false")
	}
	if IsNetClone(nil) || IsNetClone([]byte{0x4E}) {
		t.Fatal("IsNetClone accepted a too-short buffer")
	}
	bad := append([]byte(nil), buf[:]...)
	bad[0] = 0
	if IsNetClone(bad) {
		t.Fatal("IsNetClone accepted bad magic")
	}
}

func TestLamportID(t *testing.T) {
	a := Header{ClientID: 1, ClientSeq: 2}
	b := Header{ClientID: 2, ClientSeq: 1}
	if a.LamportID() == b.LamportID() {
		t.Fatal("distinct (client, seq) pairs must have distinct Lamport IDs")
	}
	// Retransmission: same pair -> same ID.
	c := Header{ClientID: 1, ClientSeq: 2, ReqID: 999}
	if a.LamportID() != c.LamportID() {
		t.Fatal("LamportID must ignore the switch-assigned ReqID")
	}
}

func TestStrings(t *testing.T) {
	if TypeReq.String() != "REQ" || TypeResp.String() != "RESP" {
		t.Error("MsgType strings wrong")
	}
	if MsgType(9).String() == "" {
		t.Error("unknown MsgType must stringify")
	}
	if CloNone.String() != "none" || CloOriginal.String() != "original" || CloClone.String() != "clone" {
		t.Error("CloState strings wrong")
	}
	if CloState(9).String() == "" {
		t.Error("unknown CloState must stringify")
	}
	h := sampleHeader()
	if h.String() == "" {
		t.Error("Header.String empty")
	}
}

func BenchmarkMarshalTo(b *testing.B) {
	h := sampleHeader()
	var buf [HeaderLen]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = h.MarshalTo(buf[:])
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	h := sampleHeader()
	var buf [HeaderLen]byte
	_, _ = h.MarshalTo(buf[:])
	var out Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = out.Unmarshal(buf[:])
	}
}

func TestMarshalZeroAlloc(t *testing.T) {
	h := sampleHeader()
	var buf [HeaderLen]byte
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = h.MarshalTo(buf[:])
		var out Header
		_, _ = out.Unmarshal(buf[:])
	})
	if allocs != 0 {
		t.Fatalf("marshal+unmarshal allocates %v times per op, want 0", allocs)
	}
}

// TestParseID pins the 16-bit bound of the command-line IDs: every
// value a header ID field holds parses, and anything else is rejected
// rather than narrowed. Through flag.Func, the error names the flag.
func TestParseID(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint16
		ok   bool
	}{
		{"0", 0, true},
		{"1", 1, true},
		{"4464", 4464, true},
		{"65535", 65535, true},
		{"65536", 0, false},
		{"70000", 0, false},
		{"-1", 0, false},
		{"", 0, false},
		{"0x10", 0, false},
		{"sid", 0, false},
	} {
		got, err := ParseID(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseID(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseID(%q) = %d, want an error", tc.in, got)
		}
	}

	fs := flag.NewFlagSet("netclone-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var sid uint16
	fs.Func("sid", "server ID", func(s string) (err error) {
		sid, err = ParseID(s)
		return err
	})
	err := fs.Parse([]string{"-sid", "70000"})
	if err == nil || !strings.Contains(err.Error(), "-sid") {
		t.Errorf("out-of-range -sid parsed as %d with error %v; want an error naming -sid", sid, err)
	}
}
