// Package sr2201 is a library reproduction of "Deadlock-free Fault-tolerant
// Routing in the Multi-dimensional Crossbar Network and Its Implementation
// for the Hitachi SR2201" (Yasuda et al., IPPS 1997).
//
// It provides a flit-level, cycle-accurate simulator of the SR2201's
// multi-dimensional crossbar interconnect together with the paper's routing
// schemes: dimension-order point-to-point routing, the S-XB-serialized
// hardware broadcast, the detour path selection facility for a single
// network fault, and the deadlock-free combined scheme obtained by unifying
// the detour crossbar with the serialized crossbar.
//
// The root package is a thin façade over the implementation packages; see
// README.md for a tour and DESIGN.md for the architecture.
//
//	m, err := sr2201.NewMachine(sr2201.Config{Shape: sr2201.MustShape(8, 8)})
//	if err != nil { ... }
//	m.AddFault(sr2201.RouterFault(sr2201.Coord{3, 4}))
//	m.Send(sr2201.Coord{0, 0}, sr2201.Coord{7, 7}, 0)
//	out := m.Run(100_000)          // deadlock-watched simulation
//	fmt.Println(out.Drained, m.Deliveries())
package sr2201

import (
	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

// Machine is a simulated SR2201 interconnect. See core.Machine.
type Machine = core.Machine

// Config assembles a Machine.
type Config = core.Config

// Delivery records one packet consumed by a PE.
type Delivery = core.Delivery

// EngineConfig tunes the simulation kernel: buffer depth and fan-out
// acquisition mode. Links take one cycle and ejection is unlimited in every
// configuration.
type EngineConfig = engine.Config

// Coord is a point of the d-dimensional lattice.
type Coord = geom.Coord

// Shape is the lattice shape (n1, ..., nd).
type Shape = geom.Shape

// Line identifies one axis-aligned lattice line (one crossbar switch).
type Line = geom.Line

// Fault identifies one faulty switch.
type Fault = fault.Fault

// Outcome summarizes a deadlock-watched run.
type Outcome = deadlock.Outcome

// NewMachine builds a machine. See core.NewMachine.
func NewMachine(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }

// NewShape validates per-dimension extents.
func NewShape(extents ...int) (Shape, error) { return geom.NewShape(extents...) }

// MustShape is NewShape for statically known good extents.
func MustShape(extents ...int) Shape { return geom.MustShape(extents...) }

// RouterFault marks the relay switch at c faulty.
func RouterFault(c Coord) Fault { return fault.RouterFault(c) }

// XBFault marks the crossbar of line l faulty.
func XBFault(l Line) Fault { return fault.XBFault(l) }

// LineOf returns the lattice line through c along dim (identifying the dim-k
// crossbar of a coordinate).
func LineOf(c Coord, dim int) Line { return geom.LineOf(c, dim) }

// ErrUnreachable reports a destination the fault-tolerant routing cannot
// serve under the present faults.
var ErrUnreachable = routing.ErrUnreachable

// DefaultPacketSize is the packet length in flits when a caller passes 0.
const DefaultPacketSize = core.DefaultPacketSize
