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

// ChannelName names the directed link channel leaving the router at c
// toward value v of dimension dim, e.g. "R(1,2).d0>3".
func ChannelName(c geom.Coord, dim, v int) string {
	return fmt.Sprintf("R%s.d%d>%d", c, dim, v)
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
	shape := s.Shape()
	pePort := PEPort(shape)
	h := &flit.Header{Src: src, Dst: dst}
	cur := src
	in := pePort
	if w != nil {
		w.Routers = append(w.Routers, cur)
	}
	limit := 4*shape.Dims()*PortCount(shape) + 16
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
			h = dec.Transform(h)
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
		dim, v := PortTarget(shape, cur, out)
		next := cur
		next[dim] = v
		if w != nil {
			w.Channels = append(w.Channels, ChannelName(cur, dim, v))
			w.Routers = append(w.Routers, next)
		}
		in = PortOf(shape, next, dim, cur[dim])
		cur = next
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
