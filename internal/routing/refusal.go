package routing

import (
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// refusal is a routing step's refusal kept as a value: the rule that refused
// and the switch, crossbar dimension or RC class it names. The zero value
// refuses nothing. err renders it as the rule's error, so a compiled table
// keeps thousands of refusals without formatting one, and a run formats only
// those a packet meets. Every switch a policy routes at lies inside the
// shape, so a router or line is kept by index.
type refusal struct {
	rule refusalRule
	dim  uint8   // the crossbar's dimension
	rc   flit.RC // the class a switch cannot handle
	at   int32   // Shape.Index of the router, or of the crossbar line's Fixed
}

type refusalRule uint8

const (
	_ refusalRule = iota
	whySXBFaulty
	whyTowardSXB
	whyPEBroadcast
	whyDXBFaulty
	whyTowardDXB
	whyRouterRC
	whyDetourNeedsXB
	whyDetourLegFaulty
	whyRequestOffSXB
	whyEmptyFan
	whyDetourOffDXB
	whyDXBRouterFaulty
	whyXBRC
	whyRouterFaulty
	whyDstFaulty
	whyNoDetourRouter
	whyDetourReenters
)

// refuseAt is a refusal naming the router at c.
func (p *Policy) refuseAt(rule refusalRule, c geom.Coord) refusal {
	return refusal{rule: rule, at: int32(p.shape.Index(c))}
}

// refuseLine is a refusal naming the crossbar of line l.
func (p *Policy) refuseLine(rule refusalRule, l geom.Line) refusal {
	return refusal{rule: rule, dim: uint8(l.Dim), at: int32(p.shape.Index(l.Fixed))}
}

// err renders the refusal on shape, nil for none: every decision asks, so
// the common answer stays inlined.
func (r refusal) err(shape geom.Shape) error {
	if r.rule == 0 {
		return nil
	}
	return r.render(shape)
}

// render is the rule's error. A refusal for want of a route wraps
// ErrUnreachable; one for a header no switch should hold does not.
func (r refusal) render(shape geom.Shape) error {
	c := shape.CoordOf(int(r.at))
	l := geom.Line{Dim: int(r.dim), Fixed: c}
	switch r.rule {
	case whySXBFaulty:
		return fmt.Errorf("%w: serialized crossbar faulty", ErrUnreachable)
	case whyTowardSXB:
		return fmt.Errorf("%w: dim-%d crossbar toward S-XB faulty", ErrUnreachable, r.dim)
	case whyPEBroadcast:
		return fmt.Errorf("routing: broadcast packet from PE at %v without naive mode", c)
	case whyDXBFaulty:
		return fmt.Errorf("%w: detour crossbar faulty", ErrUnreachable)
	case whyTowardDXB:
		return fmt.Errorf("%w: dim-%d crossbar toward D-XB faulty", ErrUnreachable, r.dim)
	case whyRouterRC:
		return fmt.Errorf("routing: router %v cannot handle RC %v", c, r.rc)
	case whyDetourNeedsXB:
		return fmt.Errorf("%w: dim-%d crossbar %v faulty and the detour needs it", ErrUnreachable, r.dim, l)
	case whyDetourLegFaulty:
		return fmt.Errorf("%w: detour leg dim-%d crossbar %v also faulty", ErrUnreachable, r.dim, l)
	case whyRequestOffSXB:
		return fmt.Errorf("routing: broadcast request entered non-serialized dim-0 crossbar %v", l)
	case whyEmptyFan:
		return fmt.Errorf("%w: broadcast fan at %v has no healthy routers", ErrUnreachable, l)
	case whyDetourOffDXB:
		return fmt.Errorf("routing: detour packet entered non-detour dim-0 crossbar %v", l)
	case whyDXBRouterFaulty:
		return fmt.Errorf("%w: router %v on detour crossbar faulty", ErrUnreachable, c)
	case whyXBRC:
		return fmt.Errorf("routing: crossbar %v cannot handle RC %v", l, r.rc)
	case whyRouterFaulty:
		return fmt.Errorf("%w: router %v faulty", ErrUnreachable, c)
	case whyDstFaulty:
		return fmt.Errorf("%w: destination router %v faulty", ErrUnreachable, c)
	case whyNoDetourRouter:
		return fmt.Errorf("%w: no healthy detour router on %v", ErrUnreachable, l)
	case whyDetourReenters:
		return fmt.Errorf("%w: router %v faulty and the detour re-enters it", ErrUnreachable, c)
	}
	panic(fmt.Sprintf("routing: unknown refusal rule %d", r.rule))
}
