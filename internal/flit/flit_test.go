package flit

import (
	"testing"
	"testing/quick"

	"sr2201/internal/geom"
)

func TestRCString(t *testing.T) {
	cases := map[RC]string{
		RCNormal:           "normal",
		RCBroadcastRequest: "broadcast-request",
		RCBroadcast:        "broadcast",
		RCDetour:           "detour",
		RC(9):              "RC(9)",
	}
	for rc, want := range cases {
		if got := rc.String(); got != want {
			t.Errorf("RC(%d).String() = %q, want %q", rc, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindHeader: "header",
		KindBody:   "body",
		KindTail:   "tail",
		Kind(9):    "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind.String() = %q, want %q", got, want)
		}
	}
}

// Each part of a rewrite writes its own fields and nothing else, and parts
// combine.
func TestRewriteApply(t *testing.T) {
	base := Header{PacketID: 7, Dst: geom.Coord{1, 2}, FinalDst: geom.Coord{3, 4}, TwoPhase: true, RC: RCDetour, DetourHops: 2, AdaptiveHops: 5}
	cases := []struct {
		w    Rewrite
		want func(h *Header)
	}{
		{0, func(h *Header) {}},
		{SetRC(RCNormal), func(h *Header) { h.RC = RCNormal }},
		{SetRC(RCBroadcast), func(h *Header) { h.RC = RCBroadcast }},
		{SetRC(RCDetour), func(h *Header) {}},
		{Retarget, func(h *Header) { h.Dst, h.TwoPhase = h.FinalDst, false }},
		{CountDetour, func(h *Header) { h.DetourHops++ }},
		{CountAdaptive, func(h *Header) { h.AdaptiveHops++ }},
		{Retarget | SetRC(RCBroadcastRequest) | CountDetour, func(h *Header) {
			h.Dst, h.TwoPhase, h.RC, h.DetourHops = h.FinalDst, false, RCBroadcastRequest, h.DetourHops+1
		}},
	}
	for _, c := range cases {
		got, want := base, base
		c.w.Apply(&got)
		c.want(&want)
		if got != want {
			t.Errorf("rewrite %#x: got %+v, want %+v", c.w, got, want)
		}
	}
	if SetRC(RCDetour) == 0 || SetRC(RCNormal) == SetRC(RCDetour) {
		t.Error("setting an RC must be a non-zero rewrite distinct per RC")
	}
}

func TestNewPacketSingleFlit(t *testing.T) {
	h := &Header{PacketID: 1, Src: geom.Coord{0, 0}, Dst: geom.Coord{1, 1}}
	fs := NewPacket(h, 1)
	if len(fs) != 1 {
		t.Fatalf("got %d flits", len(fs))
	}
	f := fs[0]
	if f.Kind != KindHeader || !f.Last || f.Header != h || f.Seq != 0 {
		t.Errorf("single flit = %+v", f)
	}
	if h.Size != 1 {
		t.Errorf("header size = %d", h.Size)
	}
}

func TestNewPacketStructure(t *testing.T) {
	h := &Header{PacketID: 42}
	fs := NewPacket(h, 5)
	if len(fs) != 5 {
		t.Fatalf("got %d flits", len(fs))
	}
	if fs[0].Kind != KindHeader || fs[0].Last {
		t.Errorf("flit 0 = %+v", fs[0])
	}
	for i := 1; i < 4; i++ {
		if fs[i].Kind != KindBody || fs[i].Last || fs[i].Header != nil {
			t.Errorf("flit %d = %+v", i, fs[i])
		}
	}
	if fs[4].Kind != KindTail || !fs[4].Last {
		t.Errorf("tail = %+v", fs[4])
	}
	for i, f := range fs {
		if f.Seq != i || f.PacketID != 42 {
			t.Errorf("flit %d: seq=%d id=%d", i, f.Seq, f.PacketID)
		}
	}
}

func TestNewPacketPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPacket(0) did not panic")
		}
	}()
	NewPacket(&Header{}, 0)
}

func TestFlitString(t *testing.T) {
	h := &Header{PacketID: 7}
	fs := NewPacket(h, 3)
	if got := fs[0].String(); got != "pkt7.header" {
		t.Errorf("header string %q", got)
	}
	if got := fs[1].String(); got != "pkt7.body[1]" {
		t.Errorf("body string %q", got)
	}
	if got := fs[2].String(); got != "pkt7.tail[2]" {
		t.Errorf("tail string %q", got)
	}
}

// Property: for any size >= 1, exactly one header, exactly one Last flit, and
// seq numbers are 0..size-1.
func TestQuickPacketInvariants(t *testing.T) {
	f := func(raw uint8) bool {
		size := int(raw)%32 + 1
		fs := NewPacket(&Header{PacketID: uint64(raw)}, size)
		headers, lasts := 0, 0
		for i, fl := range fs {
			if fl.Seq != i {
				return false
			}
			if fl.Kind == KindHeader {
				headers++
			}
			if fl.Last {
				lasts++
			}
		}
		return headers == 1 && lasts == 1 && fs[len(fs)-1].Last
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
