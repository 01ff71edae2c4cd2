//go:build !race

package core_test

// Allocation pins for the kernel hot path and the send and broadcast paths
// (the race detector instruments allocations, hence the build tag). The
// engine owns every packet header: Send copies its header into the engine's
// pool, a switch that rewrites or replicates a header forwards pooled
// copies, and a header goes back to the pool when its packet dies. Routing
// decisions hand out shared output lists, fans included, and Broadcast
// counts its copies on the machine's own walk. So neither Send, Broadcast
// nor a Step allocates in steady state.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// pinMachine builds a machine with the given preset faults and warms it:
// one drained round of traffic sizes the route-state and header pools, the
// engine's scratch slices and the endpoints' source queues.
func pinMachine(t *testing.T, cfg core.Config, faults ...fault.Fault) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		if err := m.AddFault(f); err != nil {
			t.Fatal(err)
		}
	}
	sendRound(t, m, 64)
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("warm-up round did not drain: %+v", out)
	}
	m.ResetStats()
	return m
}

// sendRound queues three packets of the given size at every live PE, to
// destinations spread over the machine (those the routing refuses are
// skipped: the faulty router's own PE, and pairs a single detour cannot
// serve).
func sendRound(t *testing.T, m *core.Machine, size int) {
	t.Helper()
	shape := m.Shape()
	n := shape.Size()
	for i := 0; i < n; i++ {
		for _, hop := range []int{9, 27, 38} {
			src, dst := shape.CoordOf(i), shape.CoordOf((i+hop)%n)
			if m.Reachable(src, dst) != nil {
				continue
			}
			if _, err := m.Send(src, dst, size); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// allocations counts every heap allocation f makes, as testing.AllocsPerRun
// measures them, but in one run and in total, so that none is averaged away.
func allocations(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

var mesh8x8 = core.Config{Shape: geom.MustShape(8, 8)}

func TestStepAllocatesNothing(t *testing.T) {
	// Steady state on a loaded fault-free machine: headers are routed, ports
	// arbitrated, flits moved, packets delivered — and nothing is allocated.
	m := pinMachine(t, mesh8x8)
	sendRound(t, m, 64)
	eng := m.Engine()
	eng.OnDeliver = nil // "no hooks": the machine's delivery log grows as it records
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step on a loaded 8x8: %v allocations per cycle, want 0", allocs)
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended: it was not loaded throughout")
	}
}

func TestStepAllocatesNothingWithDetoursInFlight(t *testing.T) {
	// The same with a faulty router, measured from the cycle the detoured
	// packets are sent: inside the window their headers are routed around
	// the fault and make their RC transitions (normal → detour, each counted
	// detour hop, detour → normal at the D-XB), every one forwarded as a
	// pooled copy, and the packets' flits stream along the detour.
	faulty := geom.Coord{3, 3}
	m := pinMachine(t, mesh8x8, fault.RouterFault(faulty))
	// Row 3 to column 3, the dimension-order turn at the faulty router.
	detoured := 0
	m.OnDeliver = func(d core.Delivery) {
		if d.Detoured {
			detoured++
		}
	}
	for x := 0; x < 8; x++ {
		if x == 3 {
			continue
		}
		if _, err := m.Send(geom.Coord{x, 3}, geom.Coord{3, 1 + x%2*4}, 600); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Send(geom.Coord{x, 5}, geom.Coord{(x + 2) % 8, 6}, 600); err != nil {
			t.Fatal(err)
		}
	}
	eng := m.Engine()
	hook := eng.OnDeliver
	eng.OnDeliver = nil
	detourHops := 0
	eng.OnForward = func(_ *engine.Node, _ int, h *flit.Header, _ int64) {
		if h.RC == flit.RCDetour {
			detourHops++
		}
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step with detours in flight: %v allocations per cycle, want 0", allocs)
	}
	if detourHops == 0 {
		t.Fatal("no header was forwarded in detour mode during the measurement")
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended")
	}
	eng.OnForward = nil
	eng.OnDeliver = hook
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("did not drain: %+v", out)
	}
	if detoured == 0 {
		t.Fatal("no delivered packet had detoured: the scenario does not exercise the detour path")
	}
}

func TestStepAllocatesNothingAdaptive(t *testing.T) {
	// Escape-VC adaptive routing on 4x4x4 with 4 lanes and a faulty router:
	// every hop on an adaptive lane rewrites the header (AdaptiveHops), and
	// decisions are re-made every cycle a packet loses its lane. A long S-XB
	// broadcast is started, and two windows are counted allocation by
	// allocation. The first runs until the broadcast's header has reached
	// every PE: every fan decision of the tree, one past the faulty router
	// included, is made inside it. The second runs 100 cycles of its flits
	// replicating through the whole tree beside freshly sent unicast
	// traffic.
	m := pinMachine(t, core.Config{Shape: geom.MustShape(4, 4, 4), VCs: 4, Adaptive: true},
		fault.RouterFault(geom.Coord{1, 2, 1}))
	eng := m.Engine()
	eng.OnDeliver = nil // "no hooks": the machine's delivery log grows as it records
	src := geom.Coord{3, 3, 3}
	var bid uint64
	reached, adaptiveHops := 0, 0
	eng.OnForward = func(from *engine.Node, out int, h *flit.Header, _ int64) {
		if h.PacketID == bid && from.Out[out].DownstreamIn().Node().Kind == engine.KindEndpoint {
			reached++
		}
		if h.AdaptiveHops > 0 {
			adaptiveHops++
		}
	}
	// run plays the scenario and counts each window's allocations.
	run := func() (fanOut, inFlight uint64) {
		id, copies, err := m.Broadcast(src, 400)
		if err != nil {
			t.Fatal(err)
		}
		bid, reached, adaptiveHops = id, 0, 0
		cycles := 0
		fanOut = allocations(func() {
			for ; reached < copies && cycles < 1000; cycles++ {
				eng.Step()
			}
		})
		if reached < copies {
			t.Fatalf("the broadcast header reached %d of %d PEs in %d cycles", reached, copies, cycles)
		}
		sendRound(t, m, 16)
		inFlight = allocations(func() {
			for i := 0; i < 100; i++ {
				eng.Step()
			}
		})
		return fanOut, inFlight
	}
	// A drained rehearsal of the same scenario gives the lanes the
	// broadcast and the adaptive hops take their rings, and the pools their
	// size.
	run()
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("rehearsal did not drain: %+v", out)
	}
	// The fan decisions allocate nothing, and neither does the kernel: a
	// fan takes a pooled state that has held one, whose output arrays are
	// as wide as the widest switch. With a list allocated per fan decision
	// the window made 215 allocations, and 74 while a fan could take any
	// pooled state and grew its arrays by its own width.
	fanOut, inFlight := run()
	if fanOut != 0 {
		t.Errorf("Engine.Step while a broadcast fans out: %d allocations, want 0", fanOut)
	}
	if inFlight != 0 {
		t.Errorf("Engine.Step with adaptive hops and a broadcast in flight: %d allocations in 100 cycles, want 0", inFlight)
	}
	if adaptiveHops == 0 {
		t.Fatal("no header was forwarded after an adaptive hop during the measurement")
	}
	hdrs, _ := eng.InFlightHeaders()
	if !slices.ContainsFunc(hdrs, func(h *flit.Header) bool { return h.PacketID == bid }) {
		t.Fatal("the broadcast finished before the measurement ended")
	}
}

func TestSendAllocatesNothing(t *testing.T) {
	// Send's reachability precheck replays the routing decisions without
	// collecting a path or allocating a probe header, detour or not, and the
	// header it queues comes from the engine's pool.
	faulty := geom.Coord{3, 3}
	for _, tc := range []struct {
		name   string
		faults []fault.Fault
	}{{"fault-free", nil}, {"faulted", []fault.Fault{fault.RouterFault(faulty)}}} {
		t.Run(tc.name, func(t *testing.T) {
			m := pinMachine(t, mesh8x8, tc.faults...)
			i := 0
			send := func() {
				// Row 3 to column 3 turns at (3,3): detoured when it is faulty.
				x := []int{0, 1, 2, 4, 5, 6, 7}[i%7]
				i++
				if _, err := m.Send(geom.Coord{x, 3}, geom.Coord{3, 1 + x%2*4}, 1); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(14, send); allocs != 0 {
				t.Errorf("Machine.Send: %v allocations per packet, want 0", allocs)
			}
			if err := m.Reachable(geom.Coord{0, 3}, geom.Coord{3, 7}); err != nil {
				t.Fatal(err)
			}
			reach := func() { _ = m.Reachable(geom.Coord{0, 3}, geom.Coord{3, 7}) }
			if allocs := testing.AllocsPerRun(50, reach); allocs != 0 {
				t.Errorf("Machine.Reachable on a served pair: %v allocations, want 0", allocs)
			}
		})
	}
}

func TestBroadcastAllocatesNothing(t *testing.T) {
	// Broadcast counts its copies on the machine's own walk, and every fan
	// decision hands out an interned list, so after a first call a
	// broadcast allocates nothing: fault-free, through fans past a faulty
	// router (Fig. 9, and the 4-lane adaptive 4x4x4), and unserialized. Its
	// count and its refusal are the static tree's for every source, healthy,
	// faulty or outside the shape.
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		faults []fault.Fault
	}{
		{"fault-free", core.Config{Shape: geom.MustShape(4, 4)}, nil},
		{"fig9", core.Config{Shape: geom.MustShape(4, 4), SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}, DXBSeparate: true},
			[]fault.Fault{fault.RouterFault(geom.Coord{2, 1})}},
		{"adaptive", core.Config{Shape: geom.MustShape(4, 4, 4), VCs: 4, Adaptive: true},
			[]fault.Fault{fault.RouterFault(geom.Coord{1, 2, 1})}},
		{"naive", core.Config{Shape: geom.MustShape(4, 4), NaiveBroadcast: true}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := pinMachine(t, tc.cfg, tc.faults...)
			shape := m.Shape()
			// Eight broadcasts from one source, drained, size the walk's
			// scratch, the header pool and the source queue for eight more.
			src := shape.CoordOf(shape.Size() - 1)
			send := func() {
				if _, _, err := m.Broadcast(src, 2); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				send()
			}
			if out := m.Run(100_000); !out.Drained {
				t.Fatalf("warm-up broadcasts did not drain: %+v", out)
			}
			if allocs := allocations(func() {
				for i := 0; i < 8; i++ {
					send()
				}
			}); allocs != 0 {
				t.Errorf("Machine.Broadcast: %v allocations in 8 calls, want 0", allocs)
			}
			sources := []geom.Coord{{shape[0]}} // outside the shape
			shape.Enumerate(func(c geom.Coord) bool {
				sources = append(sources, c)
				return true
			})
			for _, src := range sources {
				tree, want := m.Policy().BroadcastTree(src)
				_, copies, err := m.Broadcast(src, 2)
				if fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("Broadcast from %v: error %v, the static tree's %v", src, err, want)
				}
				if err == nil && copies != len(tree.Delivered) {
					t.Fatalf("Broadcast from %v: %d copies, the static tree reaches %d PEs", src, copies, len(tree.Delivered))
				}
			}
		})
	}
}

func TestNewMachineAllocations(t *testing.T) {
	// A serve-mixed campaign cell in miniature: build a 4x4 machine, queue a
	// round of 16-flit packets and step it 200 cycles. Building dominates
	// the count. With a ring allocated per input port at its first flit and
	// a heap array per route state's outputs, the run made 1039
	// allocations. One flit slab for every ring, port columns grown by
	// doubling and one-output routes stored inline made it 736. Building at
	// the final size — the engine's sizing call, nodes and port handles
	// carved from engine arrays — made it 465. Node names cut from one
	// string, metas in two typed arrays, source queues, per-cycle lists,
	// route states and headers carved from slabs make it 115 (116 in about
	// one run of thirty).
	const pin = 116
	run := func() {
		m, err := core.NewMachine(core.Config{Shape: geom.MustShape(4, 4)})
		if err != nil {
			t.Fatal(err)
		}
		sendRound(t, m, 16)
		for i := 0; i < 200; i++ {
			m.Step()
		}
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > pin {
		t.Errorf("NewMachine on 4x4 and 200 loaded cycles: %v allocations, want at most %v", allocs, pin)
	}
}

// TestNewMachineBytes pins what building the 2048-PE 8x16x16 SR2201
// allocates to the state it keeps. topo.NewNet sizes every engine column,
// the flit slabs, the active sets, the node and port-handle arrays and the
// string the node names are cut from once, so the bytes allocated exceed
// the bytes still live after a GC by 0.6 % (2.2 % with a string per name).
// A column grown by doubling leaves its outgrown arrays behind: the flit
// slab, a port column or a handle array would each add 4–17 % and fail the
// 5 % bound.
func TestNewMachineBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, built, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := core.NewMachine(core.Config{Shape: geom.MustShape(8, 16, 16)})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	allocated, live := built.TotalAlloc-before.TotalAlloc, after.HeapAlloc-before.HeapAlloc
	if float64(allocated) > 1.05*float64(live) {
		t.Errorf("NewMachine(8x16x16) allocated %d bytes to keep %d (%.3fx), want at most 1.05x", allocated, live, float64(allocated)/float64(live))
	}
}
