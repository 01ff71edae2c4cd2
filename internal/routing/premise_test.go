package routing

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// TestDecisionReadsOnlyPortDstAndRC pins the premise of the dependence
// prover's unicast memo (cdg's registerUnicast): a switch decides from where
// it is, the in-port, the header's Dst and its RC alone. Headers that differ
// in every other field — Src, PacketID, Size, InjectedAt, BroadcastOrigin,
// DetourHops, AdaptiveHops, Epoch — get the same outputs, rewrite,
// provisional flag and refusal text, at every router and crossbar, every
// in-port, every destination and every RC, fault-free and under every single
// fault, with the unified and the separate D-XB. A rule that starts reading
// another field fails here before the memo can go wrong. It also pins what
// the memo's row loop takes from UnicastHeader: a pair's header differs from
// its source row's only in Dst.
func TestDecisionReadsOnlyPortDstAndRC(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(3, 3, 3)} {
		separate := shape.LineAt(0, shape.LineCount(0)-1).Fixed
		faults := append([]fault.Fault{{}}, placements(shape)...)
		for _, f := range faults {
			for _, dxb := range []geom.Coord{{}, separate} {
				cfg := Config{Shape: shape, DXB: dxb}
				p := mustPolicy(t, cfg)
				if f != (fault.Fault{}) {
					p = withFaults(t, shape, cfg, f)
				}
				what := fmt.Sprintf("%v, fault %v, D-XB %v", shape, f, dxb)
				decidesOnPortDstAndRC(t, p, what)
				rowHeaders(t, p, what)
			}
		}
	}
}

// decidesOnPortDstAndRC compares, at every switch and in-port, the decision
// for the bare header {Dst, RC} with the decisions for headers that add
// everything else a header carries.
func decidesOnPortDstAndRC(t *testing.T, p *Policy, what string) {
	t.Helper()
	shape := p.shape
	last := shape.CoordOf(shape.Size() - 1)
	dressed := func(h flit.Header, i int) flit.Header {
		src := [2]geom.Coord{last, shape.CoordOf(shape.Size() / 2)}[i]
		h.Src, h.BroadcastOrigin = src, src
		h.PacketID, h.Size, h.InjectedAt = uint64(1000+i), 2+22*i, int64(77+i)
		h.DetourHops, h.AdaptiveHops, h.Epoch = 1+i, 3*i, uint64(5+i)
		return h
	}
	same := func(decide func(h *flit.Header) (engine.Decision, error), where func() string) {
		for di := 0; di < shape.Size(); di++ {
			for rc := flit.RCNormal; rc <= flit.RCDetour; rc++ {
				bare := flit.Header{Dst: shape.CoordOf(di), RC: rc}
				h := bare
				want, wantErr := decide(&h)
				for i := range 2 {
					h := dressed(bare, i)
					got, err := decide(&h)
					if !sameDecision(got, err, want, wantErr) {
						t.Fatalf("%s: %s, %v: decided %+v, %v; the bare header %+v, %v", what, where(), h, got, err, want, wantErr)
					}
				}
			}
		}
	}
	shape.Enumerate(func(c geom.Coord) bool {
		for in := 0; in <= p.dims; in++ {
			same(func(h *flit.Header) (engine.Decision, error) { return p.RouteRouter(nil, c, in, h) },
				func() string { return fmt.Sprintf("router %v in %d", c, in) })
		}
		return true
	})
	for _, l := range shape.Lines() {
		for in := 0; in < shape[l.Dim]; in++ {
			same(func(h *flit.Header) (engine.Decision, error) { return p.RouteXB(nil, l, in, h) },
				func() string { return fmt.Sprintf("crossbar %v in %d", l, in) })
		}
	}
}

// sameDecision compares two decisions whole: outputs, rewrite, provisional
// flag, and the refusal down to its text and its ErrUnreachable identity.
func sameDecision(a engine.Decision, aErr error, b engine.Decision, bErr error) bool {
	if (aErr != nil) != (bErr != nil) {
		return false
	}
	if aErr != nil {
		return aErr.Error() == bErr.Error() && errors.Is(aErr, ErrUnreachable) == errors.Is(bErr, ErrUnreachable)
	}
	return slices.Equal(a.Outs, b.Outs) && a.Rewrite == b.Rewrite && a.Provisional == b.Provisional
}

// rowHeaders checks that UnicastHeader(src, dst) is UnicastHeader(src, src)
// with Dst set, refusal included.
func rowHeaders(t *testing.T, p *Policy, what string) {
	t.Helper()
	shape := p.shape
	shape.Enumerate(func(src geom.Coord) bool {
		row, rowErr := p.UnicastHeader(src, src)
		if (rowErr == nil) != p.Sends(shape.Index(src)) {
			t.Fatalf("%s: UnicastHeader from %v refuses %v, Sends says %v", what, src, rowErr, p.Sends(shape.Index(src)))
		}
		shape.Enumerate(func(dst geom.Coord) bool {
			h, err := p.UnicastHeader(src, dst)
			want := row
			want.Dst = dst
			if h != want || (err == nil) != (rowErr == nil) || err != nil && err.Error() != rowErr.Error() {
				t.Fatalf("%s: UnicastHeader(%v, %v) = %+v, %v; its row's is %+v, %v", what, src, dst, h, err, row, rowErr)
			}
			return true
		})
		return true
	})
}
