package topo

import (
	"errors"
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// The static path walker replays a Router scheme's per-hop decisions
// without the engine: the same function that forwards packets at
// simulation time produces the channel sequences the prover certifies,
// so the certificate covers exactly the routes the machine takes.

// channelName names the directed channel leaving link port `port` of the
// router at c for the router at peer: the dimension the cable runs along and
// the far end's value in it, e.g. "R(1,2).d0>3", with the lane appended where
// several share the wire, e.g. "R(1,2).d0>3.vc1".
func channelName(w Wiring, c geom.Coord, port int, peer geom.Coord) string {
	dim := c.FirstDiff(peer, geom.MaxDims)
	name := fmt.Sprintf("R%s.d%d>%d", c, dim, peer[dim])
	if lanes := w.Lanes(); lanes > 1 {
		name += fmt.Sprintf(".vc%d", port%lanes)
	}
	return name
}

// PEChannelName names the delivery channel from the router at c into its
// PE, e.g. "R(1,2).pe".
func PEChannelName(c geom.Coord) string {
	return fmt.Sprintf("R%s.pe", c)
}

// Walked is one resolved static route.
type Walked struct {
	// Channels lists the channel names in traversal order; the last entry
	// is the destination router's PE delivery channel.
	Channels []string
	// Routers lists the router coordinates visited, source first,
	// destination last.
	Routers []geom.Coord
}

// Walk replays the scheme's routing decisions for one source/destination
// pair and returns the route. Refusals surface as ErrUnreachable; a
// scheme that replicates, loops, or walks off its shape is reported as a
// hard error.
func Walk(s Router, src, dst geom.Coord) (Walked, error) {
	var w Walked
	if err := walk(s, src, dst, &w); err != nil {
		return Walked{}, err
	}
	return w, nil
}

// Reach reports whether the scheme serves the pair: Walk's error, without
// naming the channels or listing the routers of a route nobody asked for.
func Reach(s Router, src, dst geom.Coord) error {
	return walk(s, src, dst, nil)
}

// walk is the walker under Walk and Reach; it records the route in w unless
// w is nil.
func walk(s Router, src, dst geom.Coord, w *Walked) error {
	wiring := s.Wiring()
	pePort := wiring.Ports() - 1
	h := &flit.Header{Src: src, Dst: dst}
	cur := src
	in := pePort
	if w != nil {
		w.Routers = append(w.Routers, cur)
	}
	// A route that takes more hops than there are routers has looped.
	limit := s.Shape().Size()
	for hops := 0; ; hops++ {
		if hops > limit {
			return fmt.Errorf("topo: %s walk %s->%s exceeded %d hops", s.Name(), src, dst, limit)
		}
		dec, err := s.Route(cur, in, h)
		if err != nil {
			return err
		}
		if len(dec.Outs) != 1 {
			return fmt.Errorf("topo: %s walk %s->%s: unicast decision with %d outputs at %s",
				s.Name(), src, dst, len(dec.Outs), cur)
		}
		out := dec.Outs[0]
		if dec.Transform != nil {
			dec.Transform(h)
		}
		if out == pePort {
			if cur != dst {
				return fmt.Errorf("topo: %s walk %s->%s delivered at %s", s.Name(), src, dst, cur)
			}
			if w != nil {
				w.Channels = append(w.Channels, PEChannelName(cur))
			}
			return nil
		}
		next, nextIn, ok := wiring.Peer(cur, out)
		if !ok {
			return fmt.Errorf("topo: %s walk %s->%s left %s by uncabled port %d", s.Name(), src, dst, cur, out)
		}
		if w != nil {
			w.Channels = append(w.Channels, channelName(wiring, cur, out, next))
			w.Routers = append(w.Routers, next)
		}
		cur, in = next, nextIn
	}
}

// RegisterUnicastDependences walks every source/destination pair of the
// scheme's shape and records each resolved route's channel dependences in
// the builder. Refused pairs (ErrUnreachable) contribute nothing: the
// scheme never allocates channels for them. This is the standard
// RegisterDependences body for unicast-only direct-link schemes.
func RegisterUnicastDependences(b *Builder, s Router) error {
	shape := s.Shape()
	var werr error
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			w, err := Walk(s, src, dst)
			if err != nil {
				if errors.Is(err, ErrUnreachable) {
					return true
				}
				werr = err
				return false
			}
			b.Path(w.Channels...)
			return true
		})
		return werr == nil
	})
	return werr
}
