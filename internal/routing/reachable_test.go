package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkReachableAgrees holds Reachable and UnicastPath to the oracle walk
// over every ordered pair of the policy's shape.
func checkReachableAgrees(t *testing.T, p *Policy, what string) {
	t.Helper()
	p.shape.Enumerate(func(src geom.Coord) bool {
		p.shape.Enumerate(func(dst geom.Coord) bool {
			want, wantErr := walkHeader(p, src, &flit.Header{Src: src, Dst: dst, RC: flit.RCNormal})
			got, gotErr := p.UnicastPath(src, dst)
			if errText(gotErr) != errText(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("%s %v->%v: UnicastPath = %v, %v; the oracle walks %v, %v", what, src, dst, got, gotErr, want, wantErr)
			}
			if err := p.Reachable(src, dst); errText(err) != errText(wantErr) {
				t.Fatalf("%s %v->%v: Reachable = %v, UnicastPath = %v", what, src, dst, err, wantErr)
			}
			return true
		})
		return !t.Failed()
	})
}

// policyCase is one policy the route queries are held to, named for the
// failure message.
type policyCase struct {
	what string
	p    *Policy
}

// faultCases lists the shape's policies: fault-free, every single router and
// crossbar fault under the unified scheme and under a separate D-XB, and 40
// seeded double faults, half with a separate D-XB.
func faultCases(t *testing.T, shape geom.Shape) []policyCase {
	var singles []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		singles = append(singles, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		singles = append(singles, fault.XBFault(l))
	}
	separate := Config{DXB: shape.CoordOf(shape.Size() - 1)}
	cases := []policyCase{{fmt.Sprintf("%v fault-free", shape), withFaults(t, shape, Config{})}}
	for _, f := range singles {
		cases = append(cases,
			policyCase{fmt.Sprintf("%v %v", shape, f), withFaults(t, shape, Config{}, f)},
			policyCase{fmt.Sprintf("%v %v dxb=%v", shape, f, separate.DXB), withFaults(t, shape, separate, f)})
	}
	// Beyond the single-fault guarantee the refusals multiply; they must
	// still be the same refusals. A separate D-XB moves the detour.
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		a, b := singles[rng.Intn(len(singles))], singles[rng.Intn(len(singles))]
		if a == b {
			continue
		}
		cfg := Config{}
		if i%2 == 1 {
			cfg.DXB = shape.CoordOf(rng.Intn(shape.Size()))
		}
		cases = append(cases, policyCase{fmt.Sprintf("%v %v+%v dxb=%v", shape, a, b, cfg.DXB), withFaults(t, shape, cfg, a, b)})
	}
	return cases
}

func TestReachableAgreesWithUnicastPath(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(4, 4, 4)} {
		for _, c := range faultCases(t, shape) {
			checkReachableAgrees(t, c.p, c.what)
		}
	}
}

func plainRouteHealthy(f *fault.Set, dims int, src, dst geom.Coord) bool {
	at := src
	if f.RouterFaulty(at) {
		return false
	}
	for k := 0; k < dims; k++ {
		if at[k] == dst[k] {
			continue
		}
		if f.XBFaulty(geom.LineOf(at, k)) {
			return false
		}
		if at[k] = dst[k]; f.RouterFaulty(at) {
			return false
		}
	}
	return true
}

// checkPlainRoute holds PlainRoute to its definition, and to the oracle walk,
// over every ordered pair of the policy's shape: a pair it serves is served
// by the plain dimension-order route, and Reachable refuses exactly what the
// oracle does, in its words. It returns how many pairs PlainRoute served.
func checkPlainRoute(t *testing.T, p *Policy, what string) int {
	t.Helper()
	served := 0
	p.shape.Enumerate(func(src geom.Coord) bool {
		p.shape.Enumerate(func(dst geom.Coord) bool {
			plain := p.PlainRoute(src, dst)
			if want := plainRouteHealthy(p.faults, p.dims, src, dst); plain != want {
				t.Fatalf("%s %v->%v: PlainRoute = %v, the route's switches say %v", what, src, dst, plain, want)
			}
			path, wantErr := walkHeader(p, src, &flit.Header{Src: src, Dst: dst, RC: flit.RCNormal})
			if plain {
				served++
				if wantErr != nil || DetourLength(path) != 0 || CrossbarHops(path) != src.Distance(dst) {
					t.Fatalf("%s %v->%v: PlainRoute serves it, the oracle walks %v, %v", what, src, dst, path, wantErr)
				}
			}
			if err := p.Reachable(src, dst); errText(err) != errText(wantErr) {
				t.Fatalf("%s %v->%v: Reachable = %v, the oracle = %v", what, src, dst, err, wantErr)
			}
			return true
		})
		return !t.Failed()
	})
	return served
}

func TestPlainRouteExact(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(3, 5), geom.MustShape(4, 4, 4), geom.MustShape(2, 3, 4)} {
		cases := faultCases(t, shape)
		pairs := shape.Size() * shape.Size()
		for _, c := range cases {
			served := checkPlainRoute(t, c.p, c.what)
			if c.p.faults.Count() == 0 && served != pairs {
				t.Fatalf("%s: PlainRoute served %d of %d pairs, want all", c.what, served, pairs)
			}
			if c.p.faults.Count() > 0 && (served == 0 || served == pairs) {
				t.Fatalf("%s: PlainRoute served %d of %d pairs: a fault must cut some and spare others", c.what, served, pairs)
			}
		}
	}
}
