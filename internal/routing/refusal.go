package routing

import (
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// refusal is a routing step's refusal kept as a value: the rule that refused
// and the switch, crossbar dimension or RC class it names. The zero value
// refuses nothing. err wraps it as an error that formats the rule's text on
// demand, so a compiled table keeps thousands of refusals without formatting
// one, and a run formats only those someone reads. Every switch a policy
// routes at lies inside the shape, so a router or line is kept by index.
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

// err is the refusal on shape as an error, nil for none: every decision
// asks, so the common answer stays inlined.
func (r refusal) err(shape geom.Shape) error {
	if r.rule == 0 {
		return nil
	}
	return refusalError{r, shape}
}

// refusalError is a refusal as an error. It formats its text only when
// Error is called: a proof that walks every pair only asks whether a walk
// was refused.
type refusalError struct {
	refusal
	shape geom.Shape
}

// Unwrap is ErrUnreachable for a refusal for want of a route, and nil for
// one for a header no switch should hold.
func (e refusalError) Unwrap() error {
	switch e.rule {
	case whyPEBroadcast, whyRouterRC, whyRequestOffSXB, whyDetourOffDXB, whyXBRC:
		return nil
	}
	return ErrUnreachable
}

// Error is the rule's text, prefixed with ErrUnreachable's where Unwrap
// returns it.
func (e refusalError) Error() string {
	c := e.shape.CoordOf(int(e.at))
	l := geom.Line{Dim: int(e.dim), Fixed: c}
	var why string
	switch e.rule {
	case whySXBFaulty:
		why = "serialized crossbar faulty"
	case whyTowardSXB:
		why = fmt.Sprintf("dim-%d crossbar toward S-XB faulty", e.dim)
	case whyPEBroadcast:
		return fmt.Sprintf("routing: broadcast packet from PE at %v without naive mode", c)
	case whyDXBFaulty:
		why = "detour crossbar faulty"
	case whyTowardDXB:
		why = fmt.Sprintf("dim-%d crossbar toward D-XB faulty", e.dim)
	case whyRouterRC:
		return fmt.Sprintf("routing: router %v cannot handle RC %v", c, e.rc)
	case whyDetourNeedsXB:
		why = fmt.Sprintf("dim-%d crossbar %v faulty and the detour needs it", e.dim, l)
	case whyDetourLegFaulty:
		why = fmt.Sprintf("detour leg dim-%d crossbar %v also faulty", e.dim, l)
	case whyRequestOffSXB:
		return fmt.Sprintf("routing: broadcast request entered non-serialized dim-0 crossbar %v", l)
	case whyEmptyFan:
		why = fmt.Sprintf("broadcast fan at %v has no healthy routers", l)
	case whyDetourOffDXB:
		return fmt.Sprintf("routing: detour packet entered non-detour dim-0 crossbar %v", l)
	case whyDXBRouterFaulty:
		why = fmt.Sprintf("router %v on detour crossbar faulty", c)
	case whyXBRC:
		return fmt.Sprintf("routing: crossbar %v cannot handle RC %v", l, e.rc)
	case whyRouterFaulty:
		why = fmt.Sprintf("router %v faulty", c)
	case whyDstFaulty:
		why = fmt.Sprintf("destination router %v faulty", c)
	case whyNoDetourRouter:
		why = fmt.Sprintf("no healthy detour router on %v", l)
	case whyDetourReenters:
		why = fmt.Sprintf("router %v faulty and the detour re-enters it", c)
	default:
		panic(fmt.Sprintf("routing: unknown refusal rule %d", e.rule))
	}
	return ErrUnreachable.Error() + ": " + why
}
