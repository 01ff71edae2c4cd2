// Package engine is a deterministic, cycle-driven, flit-level simulation
// kernel for switched interconnection networks.
//
// The kernel knows nothing about topology or routing policy: callers build a
// network out of switches (with a per-switch routing function) and endpoints
// (which inject and consume packets), connect ports with unidirectional
// links, and step the clock. The kernel implements the mechanisms the
// SR2201 paper's phenomena depend on:
//
//   - cut-through switching: the header flit claims output ports and the rest
//     of the packet streams through the opened circuit until the tail passes;
//   - credit-based flow control with finite per-input buffers, so a blocked
//     packet holds channels across switches (the wormhole-like regime in
//     which every deadlock in the paper arises);
//   - multi-port acquisition for broadcast fan-out, either incremental
//     (hold-and-wait, as in hardware and paper Fig. 5) or atomic;
//   - physical-channel multiplexing so several output ports (virtual
//     channels) can share one link's bandwidth, used by the torus baseline.
//
// Every link takes one cycle and every endpoint consumes all its arrived
// flits each cycle. Neither is a parameter: the paper's deadlocks and its
// freedom theorem depend on cut-through, finite buffers and the routes'
// channel dependences, not on link latency.
//
// Everything is iterated in fixed index order with per-resource round-robin
// arbiters, so simulations are bit-for-bit reproducible. The hot path visits
// only active elements each cycle (see scheduler.go); the active sets are
// exact predicates of each phase's no-op conditions and are iterated in
// index order, so skipping idle elements cannot change any outcome. An engine
// is single-goroutine: Step runs every phase on the caller's goroutine and
// starts none of its own.
package engine

import (
	"fmt"
	"slices"

	"sr2201/internal/flit"
)

// AcquireMode selects how a packet that needs several output ports at one
// switch (a broadcast fan-out) claims them.
type AcquireMode uint8

const (
	// AcquireAtomic grants either all requested ports or none, in order of
	// header arrival, with the ports of an older unsatisfiable request
	// reserved against younger ones (no starvation). This models the SR2201
	// crossbar, whose broadcast replay engages the whole fan simultaneously
	// ("one-by-one in order of arrival"). Hold-and-wait within one switch is
	// eliminated — but not across switches, which is where the paper's
	// deadlocks live (a fan that did start still stalls on downstream
	// credits while holding every branch).
	AcquireAtomic AcquireMode = iota
	// AcquireIncremental grants whatever requested ports are free each cycle
	// and holds them while waiting for the rest (hold-and-wait inside a
	// single switch, too). Kept as an ablation: it additionally deadlocks
	// two broadcast requests meeting at the serialized crossbar itself.
	AcquireIncremental
)

// Config collects kernel-wide parameters.
type Config struct {
	// BufferDepth is the number of flit slots in each input port buffer.
	// Depths smaller than the packet size give wormhole-like blocking.
	BufferDepth int
	// Acquire selects fan-out acquisition semantics.
	Acquire AcquireMode
}

// DefaultConfig returns the configuration used throughout the experiments:
// 2-flit buffers (well below the default 8-flit packets, i.e. wormhole-like)
// and atomic per-switch acquisition. Every link takes one cycle and every
// endpoint consumes all its arrived flits each cycle, in every configuration.
func DefaultConfig() Config {
	return Config{BufferDepth: 2, Acquire: AcquireAtomic}
}

func (c *Config) normalize() {
	if c.BufferDepth < 1 {
		c.BufferDepth = 1
	}
}

// NodeKind distinguishes switching elements from traffic endpoints.
type NodeKind uint8

const (
	// KindSwitch is a routing element (crossbar or relay switch).
	KindSwitch NodeKind = iota
	// KindEndpoint is a PE-side network interface: it injects packets and
	// consumes everything that arrives.
	KindEndpoint
)

// Decision is the result of routing one packet header at one switch input.
type Decision struct {
	// Outs lists the output ports the packet must acquire. len(Outs) > 1
	// replicates the packet (broadcast fan-out). The kernel copies the
	// slice, so routing functions may reuse its backing array.
	Outs []int
	// Rewrite, if non-zero, is applied to the header of the copies forwarded
	// out of this switch (RC-bit transitions, hop counts): once per branch,
	// to a copy the kernel owns and is about to forward.
	Rewrite flit.Rewrite
	// Provisional marks a decision that binds for one allocation round only:
	// if the single requested output is not granted this cycle, the kernel
	// discards the state and routes the header again next cycle, letting an
	// adaptive policy choose a different output. Requires len(Outs) == 1.
	// The packet's arrival stamp is preserved across re-routes, so the
	// oldest-first arbiter still serves it by its true age.
	Provisional bool
}

// RouteFunc computes the forwarding decision for a packet header arriving on
// input port in of switch n. It must be deterministic and side-effect free.
// An engine calls it only from the goroutine running Step; distinct engines
// (one per sweep worker) may call the same function concurrently. A returned
// error drops the packet and surfaces through OnDrop.
type RouteFunc func(n *Node, in int, h *flit.Header) (Decision, error)

// routeState tracks the active packet on one switch input port from header
// grant until the tail flit leaves. States are pooled; the outs and granted
// slices are reused across packets. A one-output decision keeps them inline.
type routeState struct {
	outs        []outRef // the decision's output ports, in its order
	nGranted    int
	sink        bool // dropping: consume flits until Last without forwarding
	shared      bool // an output shares a physical channel: traversal stages it
	provisional bool // Decision.Provisional: re-routed each cycle until granted
	rewrite     flit.Rewrite
	one         [1]outRef
	header      *flit.Header
	granted     []bool
	// since is the cycle the header was routed; atomic allocation serves
	// requests oldest-first ("in order of arrival"). A provisional re-route
	// keeps the original stamp.
	since int64
	oneG  [1]bool
}

// newRouteStateValue returns an empty state on its inline storage.
func newRouteStateValue() *routeState {
	rs := &routeState{}
	rs.outs, rs.granted = rs.one[:0], rs.oneG[:0]
	return rs
}

func (rs *routeState) allGranted() bool { return rs.nGranted == len(rs.outs) }

// outRef names an output port by handle, by id, and by the id of the input
// port its link feeds.
type outRef struct {
	op       *OutPort
	id, down int32
}

// Port ids: a node's ports take consecutive ids when it is created; its
// input and output port k share one. The state a flit's hop touches lives in
// engine-owned columns indexed by id (Engine.in, Engine.out, the slab), so
// the hot loops load no InPort or OutPort, the handles with the cold fields.

// inState is an input port's column entry.
type inState struct {
	route   *routeState // the active cut-through state, nil when idle
	blocked int64       // InPort.BlockedCycles
	// The port's ring is its BufferDepth slots of the slab: the n flits
	// from head on, wrapping, and behind them the fly flits (0 or 1) still
	// on the link into the port (see send). Nothing is shifted as flits
	// move.
	head, n, fly int32
	up           int32 // the output port feeding this one, -1 if none
	bit          int32 // its bit in the allocation set, ^i at endpoint i
	// linkActive marks the link into the port as carrying flits: set when
	// a flit is sent on it and cleared by the landing that leaves it empty.
	// LinkVisits counts the links marked at the start of each landing phase
	// (see scheduler.go).
	linkActive bool
}

// outState is an output port's column entry. Its credits are not stored:
// they are the free slots of the buffer its link feeds (see credits).
type outState struct {
	down int32 // the input port the link feeds, -1 if unconnected
	phys int32 // its shared physical channel in Engine.phys, or -1
	busy int64 // OutPort.BusyCycles
}

// InPort is a switch or endpoint input: a FIFO flit buffer fed by one link.
// Flits are stored by value: they are copied as they move, so the steady
// state allocates nothing per hop.
type InPort struct {
	eng *Engine
	idx int
	id  int32
	// recvHeader remembers the header of the packet currently being consumed
	// by an endpoint (set when the header flit is ejected).
	recvHeader *flit.Header
}

// BlockedCycles counts cycles in which this port had a routed or routable
// packet that failed to advance.
func (p *InPort) BlockedCycles() int64 { return p.eng.in[p.id].blocked }

// at returns the i-th flit of in-port p's ring (0 = head). The pointer
// aliases the slab: it must not be retained across pops or pushes.
func (e *Engine) at(p int32, i int) *flit.Flit {
	d := e.cfg.BufferDepth
	j := int(e.in[p].head) + i
	if j >= d {
		j -= d
	}
	return &e.slab[int(p)*d+j]
}

// pop removes and returns the flit at the head of in-port p's buffer.
func (e *Engine) pop(p int32) flit.Flit {
	r := &e.in[p]
	s := &e.slab[int(p)*e.cfg.BufferDepth+int(r.head)]
	f := *s
	if f.Header != nil {
		// A vacated slot must not keep the packet's header alive until the
		// ring comes round again.
		s.Header = nil
	}
	if r.head++; int(r.head) == e.cfg.BufferDepth {
		r.head = 0
	}
	r.n--
	return f
}

// credits returns out-port o's credits (0 when unconnected): popping a flit
// returns one upstream, and sending one takes one.
func (e *Engine) credits(o int32) int32 {
	if d := e.out[o].down; d >= 0 {
		return e.free(d)
	}
	return 0
}

// free returns the slots of in-port p's ring that hold no flit.
func (e *Engine) free(p int32) int32 {
	return int32(e.cfg.BufferDepth) - e.in[p].n - e.in[p].fly
}

// front returns the flit at the head of in-port p's buffer, or nil. The
// pointer aliases the slab: it must not be retained across pops or pushes.
func (e *Engine) front(p int32) *flit.Flit {
	if e.in[p].n == 0 {
		return nil
	}
	return e.at(p, 0)
}

// OutPort is a switch or endpoint output: the upstream end of one link, with
// cut-through ownership.
type OutPort struct {
	eng *Engine
	idx int
	id  int32
	// owner is the input port whose packet currently holds this output, or
	// nil when the port is free.
	owner *InPort
	// arb is the round-robin pointer over requesting input ports.
	arb int
	// reservedCycle implements atomic allocation's anti-starvation
	// reservation without a per-cycle map: the port counts as reserved when
	// reservedCycle equals the current cycle.
	reservedCycle int64
	// pendStamp/pend gather this cycle's incremental-mode requesters (input
	// port ids) without a per-cycle map; pend's backing array is reused
	// across cycles.
	pendStamp int64
	pend      []int32
	// ConflictCycles counts allocation cycles in which two or more packets
	// requested this port simultaneously (the paper's "network conflicts").
	ConflictCycles int64
	// lastReqCycle / conflictCounted implement the per-cycle conflict count.
	lastReqCycle    int64
	conflictCounted bool
}

// Owned reports whether the port is currently held by a packet.
func (o *OutPort) Owned() bool { return o.owner != nil }

// BusyCycles counts cycles in which a flit crossed this port.
func (o *OutPort) BusyCycles() int64 { return o.eng.out[o.id].busy }

// Node is one network element: a switch with a routing function, or an
// endpoint.
type Node struct {
	ID   int
	Name string
	Kind NodeKind
	// Meta carries topology-level payload (coordinates, fault tables, ...)
	// for the routing function.
	Meta any
	// Failed marks a faulty switch: any flit arriving at it is dropped. The
	// fault-tolerant routing layer must keep traffic away from failed nodes;
	// drops here indicate a routing bug (or an intentionally unreachable
	// destination) and are reported via OnDrop.
	Failed bool

	In    []*InPort
	Out   []*OutPort
	route RouteFunc

	eng   *Engine
	port0 int32 // the id of port 0; port k's is port0+k

	epIdx    int   // position among the endpoints: its source and bit in both endpoint sets
	Injected int64 // packets handed to InjectPacket
	Sent     int64 // packets whose tail left the endpoint
	Received int64 // packets fully consumed at this endpoint
}

// InjectQueueLen reports the flits waiting in the endpoint's source queue.
func (n *Node) InjectQueueLen() int { return len(n.pendingInject()) }

// pendingInject is the live region of an endpoint's source queue.
func (n *Node) pendingInject() []flit.Flit {
	if n.Kind != KindEndpoint {
		return nil
	}
	s := &n.eng.src[n.epIdx]
	return s.q[s.head:]
}

// source is an endpoint's column entry: its source queue q[head:], rewound
// once empty, and its port id.
type source struct {
	q    []flit.Flit
	head int
	port int32
}

// reserve makes room to queue k more flits: where the append would grow q
// and the consumed prefix is at least half of it, the live region moves to
// the front instead, so a queue that never empties keeps a bounded array.
func (s *source) reserve(k int) {
	if len(s.q)+k > cap(s.q) && 2*s.head >= len(s.q) {
		n := copy(s.q, s.q[s.head:])
		clear(s.q[n:])
		s.q, s.head = s.q[:n], 0
	}
}

// PhysChannel is a group of output ports sharing one flit per cycle of
// physical bandwidth (virtual channels over one wire).
type PhysChannel struct {
	members []int32 // output port ids
	arb     int
	// granted is the member allowed to send, valid only when grantedCycle is
	// the current cycle (so idle channels need no per-cycle reset); -1 none.
	granted      int32
	grantedCycle int64
	// wantStamp/wants gather this cycle's requesting members without a
	// per-cycle map.
	wantStamp int64
	wants     []int32
}

// Delivery reports one packet consumed at an endpoint. Header belongs to the
// engine and is valid only for the duration of the OnDeliver call: the
// engine reuses it once the call returns. Copy the fields you need.
type Delivery struct {
	At     *Node
	Header *flit.Header
	Cycle  int64
}

// Drop reports one packet discarded inside the network. As with Delivery,
// Header is the engine's and valid only for the duration of the OnDrop call.
type Drop struct {
	At     *Node
	Header *flit.Header
	Cycle  int64
	Reason string
}

// Engine owns the network and the clock.
type Engine struct {
	cfg   Config
	nodes []*Node
	// switchOrder/endpointOrder cache the per-kind iteration sequences.
	switches  []*Node
	endpoints []*Node
	phys      []*PhysChannel
	// fullIn lists the id of every switch input port in creation order, the
	// allocation set's bit order.
	fullIn []int32

	// The port columns (see inState); the slab holds in-port p's ring at
	// p·BufferDepth. inPorts/outPorts are the handles, and a node's In and
	// Out are views of them; src is by endpoint.
	in       []inState
	out      []outState
	slab     []flit.Flit
	inPorts  []*InPort
	outPorts []*OutPort
	nodeOf   []*Node // a port's node
	src      []source
	// links lists the in-port each link feeds, in wiring order. A link is a
	// one-cycle delay over its downstream ring and stores nothing (see send,
	// land).
	links []int32

	cycle    int64
	moves    int64 // cumulative flit movements (link entries + ejections)
	resident int64 // flits alive in queues, buffers and links

	dropped int64

	// arrivals lists the ports the flits sent this cycle land at, in send
	// order. Every link takes one cycle: the next landing phase empties it.
	arrivals []int32
	// linksActive counts the links marked active. stale holds the ports
	// whose marked links a purge emptied: the next landing phase counts
	// those links once and unmarks them, as it would had their last flit
	// landed.
	linksActive int
	stale       []int32

	// Active sets (scheduler.go), indexed by position in fullIn and
	// endpoints respectively.
	activeAlloc  activeSet
	activeEject  activeSet
	activeInject activeSet

	// Scratch slices reused across cycles, and the route-state pool.
	reqScratch    []int32
	routedScratch []ready
	readyScratch  []ready
	outScratch    []*OutPort
	physScratch   []*PhysChannel
	rsFree        []*routeState
	// hFree is the header pool. The engine owns every packet header in the
	// network: InjectPacket copies the caller's into one from here, and a
	// header comes back when its last holder is done with it (see
	// releaseHeader).
	hFree []*flit.Header
	// sunk lists the ports that drain a flit of a dropped packet this cycle,
	// at the end of the traversal phase, so that the credits they free cannot
	// depend on the scan order of ports (DESIGN.md §10). Every pinned
	// StateHash stream depends on this visibility point.
	sunk []int32

	ctr Counters

	// OnDeliver, if non-nil, observes every packet consumption.
	OnDeliver func(Delivery)
	// OnDrop, if non-nil, observes every discarded packet.
	OnDrop func(Drop)
	// OnForward, if non-nil, observes every header flit leaving a node, for
	// route tracing. from is the node, out the output port index. h is the
	// engine's and valid only for the duration of the call.
	OnForward func(from *Node, out int, h *flit.Header, cycle int64)
	// PreCycle, if non-nil, runs at the top of every Step, before any phase
	// and before the cycle counter advances. Dynamic-fault schedules use it
	// to mutate the network at an exact cycle (KillSwitch, retransmissions);
	// the hook must be deterministic for the reproducibility guarantee to
	// hold.
	PreCycle func(cycle int64)
	// PostCycle, if non-nil, runs at the bottom of every Step, after every
	// phase and after the cycle counter has advanced. It is the only hook
	// from which whole-network surgery (KillSwitch, KillPacket) is safe
	// *after* observing the cycle's outcome — the recovery layer uses it to
	// detect a stalled network and purge a deadlock victim between cycles.
	// Like PreCycle, the hook must be deterministic.
	PostCycle func(cycle int64)

	// nodeH, inH and outH hold the nodes and port handles themselves, carved
	// in creation order from their free tails (see carve). Only building
	// touches them.
	nodeH []Node
	inH   []InPort
	outH  []OutPort
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Engine {
	cfg.normalize()
	return &Engine{cfg: cfg}
}

// Size is the size of a whole network, for Reserve.
type Size struct {
	// Switches and Endpoints count the nodes; an endpoint has one port.
	Switches, Endpoints int
	// SwitchPorts counts the ports of all switches together.
	SwitchPorts int
	// Links counts the directed links (Connect wires two).
	Links int
}

// Reserve makes room for the network to reach s in total, so that building
// it allocates each of these once: the nodes and port handles, the port
// columns, the flit slab, the links, the sources and the active sets. It
// sets capacity only. A network built past s grows through the same code,
// and one built short of it leaves the room unused; node ids, port ids,
// link order and every outcome are those of an engine built without it.
func (e *Engine) Reserve(s Size) {
	nodes, ports := s.Switches+s.Endpoints, s.SwitchPorts+s.Endpoints
	chunk(&e.nodeH, nodes-len(e.nodes))
	chunk(&e.inH, ports-len(e.in))
	chunk(&e.outH, ports-len(e.in))
	grow(&e.nodes, nodes)
	grow(&e.switches, s.Switches)
	grow(&e.endpoints, s.Endpoints)
	grow(&e.in, ports)
	grow(&e.out, ports)
	grow(&e.inPorts, ports)
	grow(&e.outPorts, ports)
	grow(&e.nodeOf, ports)
	grow(&e.slab, ports*e.cfg.BufferDepth)
	grow(&e.fullIn, s.SwitchPorts)
	grow(&e.links, s.Links)
	grow(&e.src, s.Endpoints)
	grow(&e.activeAlloc.words, words(s.SwitchPorts))
	grow(&e.activeEject.words, words(s.Endpoints))
	grow(&e.activeInject.words, words(s.Endpoints))
}

// grow makes room in column *col for n elements in total.
func grow[T any](col *[]T, n int) {
	if n > len(*col) {
		*col = slices.Grow(*col, n-len(*col))
	}
}

// chunk makes room in *arr, an array of nodes or port handles, for k more
// elements. Those are referenced by pointer, so the array never moves:
// where it lacks room, a new one of at least k elements, and at least twice
// the old one's, takes over.
func chunk[T any](arr *[]T, k int) {
	if k > cap(*arr)-len(*arr) {
		*arr = make([]T, 0, max(k, 2*cap(*arr)))
	}
}

// carve hands out the next k elements of *arr, making room first.
func carve[T any](arr *[]T, k int) []T {
	chunk(arr, k)
	n := len(*arr)
	*arr = (*arr)[:n+k]
	return (*arr)[n : n+k : n+k]
}

// Config returns the engine's (normalized) configuration.
func (e *Engine) Config() Config { return e.cfg }

// AddSwitch creates a switch with the given number of bidirectional ports and
// routing function.
func (e *Engine) AddSwitch(name string, ports int, route RouteFunc, meta any) *Node {
	if ports < 1 {
		panic(fmt.Sprintf("engine: switch %q needs at least one port", name))
	}
	if route == nil {
		panic(fmt.Sprintf("engine: switch %q needs a routing function", name))
	}
	n := &carve(&e.nodeH, 1)[0]
	*n = Node{ID: len(e.nodes), Name: name, Kind: KindSwitch, Meta: meta, route: route, eng: e}
	e.addPorts(n, ports)
	e.nodes = append(e.nodes, n)
	e.switches = append(e.switches, n)
	e.activeAlloc.resize(len(e.fullIn))
	return n
}

// addPorts gives a node its ports, carved from the engine's handle arrays,
// and their ids, column entries and slab slots. n.In and n.Out are views of
// the handle columns.
func (e *Engine) addPorts(n *Node, ports int) {
	ins, outs := carve(&e.inH, ports), carve(&e.outH, ports)
	n.port0 = int32(len(e.in))
	for i := range ins {
		id := int32(len(e.in))
		ins[i] = InPort{eng: e, idx: i, id: id}
		outs[i] = OutPort{eng: e, idx: i, id: id, lastReqCycle: -1, reservedCycle: -1, pendStamp: -1}
		bit := int32(^n.epIdx)
		if n.Kind == KindSwitch {
			bit = int32(len(e.fullIn))
			e.fullIn = append(e.fullIn, id)
		}
		e.in = append(e.in, inState{up: -1, bit: bit})
		e.out = append(e.out, outState{down: -1, phys: -1})
		e.inPorts = append(e.inPorts, &ins[i])
		e.outPorts = append(e.outPorts, &outs[i])
		e.nodeOf = append(e.nodeOf, n)
	}
	end := len(e.in)
	n.In = e.inPorts[n.port0:end:end]
	n.Out = e.outPorts[n.port0:end:end]
	e.slab = append(e.slab, make([]flit.Flit, ports*e.cfg.BufferDepth)...)
}

// AddEndpoint creates a single-port traffic endpoint.
func (e *Engine) AddEndpoint(name string, meta any) *Node {
	n := &carve(&e.nodeH, 1)[0]
	*n = Node{ID: len(e.nodes), Name: name, Kind: KindEndpoint, Meta: meta, eng: e, epIdx: len(e.endpoints)}
	e.addPorts(n, 1)
	e.src = append(e.src, source{port: n.In[0].id})
	e.nodes = append(e.nodes, n)
	e.endpoints = append(e.endpoints, n)
	e.activeEject.resize(len(e.endpoints))
	e.activeInject.resize(len(e.endpoints))
	return n
}

// Endpoints returns all endpoints in creation order.
func (e *Engine) Endpoints() []*Node { return e.endpoints }

// Switches returns all switches in creation order.
func (e *Engine) Switches() []*Node { return e.switches }

// ConnectDirected wires a's output port ap to b's input port bp with a link.
func (e *Engine) ConnectDirected(a *Node, ap int, b *Node, bp int) {
	o, p := a.Out[ap].id, b.In[bp].id
	if e.out[o].down >= 0 {
		panic(fmt.Sprintf("engine: output %s.%d already connected", a.Name, ap))
	}
	if e.in[p].up >= 0 {
		panic(fmt.Sprintf("engine: input %s.%d already connected", b.Name, bp))
	}
	e.out[o].down = p
	e.in[p].up = o
	e.links = append(e.links, p)
}

// Connect wires port ap of a to port bp of b in both directions.
func (e *Engine) Connect(a *Node, ap int, b *Node, bp int) {
	e.ConnectDirected(a, ap, b, bp)
	e.ConnectDirected(b, bp, a, ap)
}

// SharePhysical groups switch output ports onto one physical channel with a
// combined bandwidth of one flit per cycle. Only switches arbitrate for a
// channel: an endpoint's port cannot join one.
func (e *Engine) SharePhysical(ports ...*OutPort) *PhysChannel {
	pc := &PhysChannel{granted: -1, grantedCycle: -1, wantStamp: -1}
	for _, p := range ports {
		if p.Node().Kind == KindEndpoint {
			panic(fmt.Sprintf("engine: output %s.%d of an endpoint cannot share a physical channel", p.Node().Name, p.idx))
		}
		if e.out[p.id].phys >= 0 {
			panic(fmt.Sprintf("engine: output %s.%d already in a physical channel", p.Node().Name, p.idx))
		}
		e.out[p.id].phys = int32(len(e.phys))
		pc.members = append(pc.members, p.id)
	}
	e.phys = append(e.phys, pc)
	return pc
}

// InjectPacket queues a size-flit packet headed by h at the endpoint, built
// in place in the endpoint's source queue. The header is copied into engine
// storage, stamped with the injection cycle and the packet size; in steady
// state nothing is allocated.
func (e *Engine) InjectPacket(ep *Node, h flit.Header, size int) {
	if ep.Kind != KindEndpoint {
		panic(fmt.Sprintf("engine: Inject on non-endpoint %q", ep.Name))
	}
	s := &e.src[ep.epIdx]
	s.reserve(size)
	s.q = flit.AppendPacket(s.q, e.newHeader(h), size)
	ep.Injected++
	e.resident += int64(size)
	e.activeInject.add(ep.epIdx)
}

// newHeader copies h into a header from the pool (or a fresh one), stamped
// with the current cycle as its injection time.
func (e *Engine) newHeader(h flit.Header) *flit.Header {
	p := e.copyHeader(&h)
	p.InjectedAt = e.cycle
	return p
}

// copyHeader returns a pooled copy of h, for a switch to forward.
func (e *Engine) copyHeader(h *flit.Header) *flit.Header {
	var p *flit.Header
	if n := len(e.hFree); n > 0 {
		p = e.hFree[n-1]
		e.hFree = e.hFree[:n-1]
	} else {
		p = new(flit.Header)
	}
	*p = *h
	return p
}

// releaseHeader returns a header to the pool. It is called at exactly three
// points, each the header's last holder: an endpoint consuming the tail
// (after OnDeliver returns), a switch that forwarded copies (a rewrite or
// a fan-out) when the tail of the original leaves it, and a sink consuming
// the tail. A header moves downstream, and a switch that forwards it
// unchanged passes the same pointer on, so every upstream holder has let go
// by then. Purges (KillSwitch, KillPacket) release nothing, which keeps
// KilledPacket.Header valid.
func (e *Engine) releaseHeader(h *flit.Header) {
	if h != nil {
		e.hFree = append(e.hFree, h)
	}
}

// Cycle reports the current simulation time.
func (e *Engine) Cycle() int64 { return e.cycle }

// Moves reports cumulative flit movements; the deadlock watchdog watches it.
func (e *Engine) Moves() int64 { return e.moves }

// Resident reports the number of flits alive anywhere in the network.
func (e *Engine) Resident() int64 { return e.resident }

// Dropped reports the number of packets discarded so far.
func (e *Engine) Dropped() int64 { return e.dropped }

// Quiescent reports whether the network holds no flits at all.
func (e *Engine) Quiescent() bool { return e.resident == 0 }

// Step advances the simulation by one cycle. Phase order (fixed): the
// PreCycle hook, then landing, ejection, allocation, traversal, injection.
func (e *Engine) Step() {
	if e.PreCycle != nil {
		e.PreCycle(e.cycle)
	}
	e.land()
	e.eject()
	e.allocate()
	e.traverse()
	e.inject()
	e.cycle++
	e.ctr.Cycles++
	if e.PostCycle != nil {
		e.PostCycle(e.cycle)
	}
}

// RunUntilQuiescent steps until the network drains or maxCycles elapse.
// It returns true if the network drained.
func (e *Engine) RunUntilQuiescent(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if e.Quiescent() {
			return true
		}
		e.Step()
	}
	return e.Quiescent()
}

// land makes visible the flits sent last cycle. Each was written into its
// downstream ring when it was sent, so landing moves it from fly to n.
func (e *Engine) land() {
	e.ctr.LinkVisits += int64(e.linksActive)
	e.ctr.LinkVisitsSkipped += int64(len(e.links) - e.linksActive)
	for _, p := range e.stale {
		if r := &e.in[p]; r.linkActive && r.fly == 0 {
			r.linkActive = false
			e.linksActive--
		}
	}
	e.stale = e.stale[:0]
	for _, to := range e.arrivals {
		r := &e.in[to]
		r.fly--
		r.n++
		if r.fly == 0 {
			r.linkActive = false
			e.linksActive--
		}
		if r.bit >= 0 {
			e.activeAlloc.add(int(r.bit))
		} else {
			e.activeEject.add(int(^r.bit))
		}
	}
	e.arrivals = e.arrivals[:0]
}

// eject consumes arrived flits at endpoints.
func (e *Engine) eject() {
	s := &e.activeEject
	visited := 0
	for i := s.next(-1); i >= 0; i = s.next(i) {
		visited++
		e.ejectAt(i)
		if e.in[e.src[i].port].n == 0 {
			s.remove(i)
		}
	}
	e.ctr.EjectVisits += int64(visited)
	e.ctr.EjectVisitsSkipped += int64(len(e.src) - visited)
}

// ejectAt consumes every arrived flit at endpoint i.
func (e *Engine) ejectAt(i int) {
	p := e.src[i].port
	for e.in[p].n > 0 {
		f := e.pop(p)
		e.moves++
		e.resident--
		if f.Header != nil {
			e.inPorts[p].recvHeader = f.Header
		}
		if f.Last {
			in, ep := e.inPorts[p], e.endpoints[i]
			ep.Received++
			if e.OnDeliver != nil {
				e.OnDeliver(Delivery{At: ep, Header: in.recvHeader, Cycle: e.cycle})
			}
			e.releaseHeader(in.recvHeader)
			in.recvHeader = nil
		}
	}
}

// allocate routes fresh headers and arbitrates output ports.
func (e *Engine) allocate() {
	requests := e.gatherRequests()
	if len(requests) == 0 {
		return
	}
	switch e.cfg.Acquire {
	case AcquireAtomic:
		e.allocateAtomic(requests)
	default:
		e.allocateIncremental(requests)
	}
}

// gatherRequests preps every live switch input port and returns, in
// creation order (so grouped by switch), the ones competing for output
// ports this cycle: those whose front flit is an unserved header, or whose
// routeState still has ungranted outputs. It does the conflict accounting.
func (e *Engine) gatherRequests() []int32 {
	e.reqScratch, e.routedScratch = e.reqScratch[:0], e.routedScratch[:0]
	s := &e.activeAlloc
	visited := 0
	for i := s.next(-1); i >= 0; i = s.next(i) {
		visited++
		// The commonest port, a granted one-output route on no shared
		// channel, takes traversal's test (see stage) here in the loop;
		// prepare does the rest.
		p := e.fullIn[i]
		r := &e.in[p]
		if rs := r.route; rs == nil || len(rs.outs) != 1 || rs.nGranted != 1 || rs.shared {
			if !e.prepare(p) {
				s.remove(i)
			}
		} else if r.n == 0 {
			// Waiting for upstream flits; not "blocked" locally.
		} else if o := rs.outs[0]; e.free(o.down) < 1 {
			r.blocked++
		} else {
			e.routedScratch = append(e.routedScratch, ready{p, o.id})
		}
	}
	e.ctr.SwitchPortVisits += int64(visited)
	e.ctr.SwitchPortVisitsSkipped += int64(len(e.fullIn) - visited)

	// Count requesters per output port for conflict statistics.
	for _, p := range e.reqScratch {
		rs := e.in[p].route
		for i, o := range rs.outs {
			if op := o.op; !rs.granted[i] && op.owner == nil {
				op.arbRequests(e.cycle)
			}
		}
	}
	return e.reqScratch
}

// prepare routes the buffered header of idle in-port p, then reports
// whether the port remains live (holds route state or flits). A port that
// competes for output ports this cycle joins the requests and, to be tested
// once allocation is done, routedScratch. Any other takes traversal's test
// now, which allocation cannot change, and joins routedScratch if ready.
func (e *Engine) prepare(p int32) bool {
	rs := e.in[p].route
	if rs == nil {
		f := e.front(p)
		if f == nil {
			return false
		}
		if f.Header == nil {
			in := e.inPorts[p]
			panic(fmt.Sprintf("engine: mid-packet flit %s at %s.%d with no route state", f, in.Node().Name, in.idx))
		}
		rs = e.routeHeader(p, f.Header)
		e.in[p].route = rs
	} else if rs.provisional && rs.nGranted == 0 {
		// The provisional decision, made in an earlier cycle, bound for one
		// allocation round and lost. Route the header again so an adaptive
		// policy may pick a different output, preserving the original
		// arrival stamp: the oldest-first arbiter keeps seeing the packet's
		// true age, so re-routing can never starve it. With no grants issued
		// the header flit is still at the front of the buffer.
		since := rs.since
		e.freeRouteState(rs)
		rs = e.routeHeader(p, e.front(p).Header)
		rs.since = since
		e.in[p].route = rs
	}
	if !rs.sink && !rs.allGranted() {
		e.reqScratch = append(e.reqScratch, p)
		e.routedScratch = append(e.routedScratch, ready{p, testLater})
	} else if o, ok := e.stage(p); ok {
		e.routedScratch = append(e.routedScratch, ready{p, o})
	}
	return true
}

// ready is an in-port p that traversal acts on, in creation order. o is
// the output of a one-output route on no shared channel, which a body flit
// takes without its route state being loaded, or -1; testLater marks a
// request.
type ready struct{ p, o int32 }

const testLater = -2

// arbRequests bumps the conflict statistic bookkeeping; called once per
// requester per cycle. Two or more calls in one cycle mean a conflict.
func (o *OutPort) arbRequests(cycle int64) {
	if o.lastReqCycle == cycle {
		if !o.conflictCounted {
			o.ConflictCycles++
			o.conflictCounted = true
		}
		return
	}
	o.lastReqCycle = cycle
	o.conflictCounted = false
}

// allocateIncremental grants each free requested output to one requester
// (round-robin), letting fan-outs hold partial sets.
func (e *Engine) allocateIncremental(requests []int32) {
	// Build per-output requester lists in request order.
	order := e.outScratch[:0]
	for _, p := range requests {
		rs := e.in[p].route
		for i, o := range rs.outs {
			op := o.op
			if rs.granted[i] || op.owner != nil {
				continue
			}
			if op.pendStamp != e.cycle {
				op.pendStamp = e.cycle
				op.pend = op.pend[:0]
				order = append(order, op)
			}
			op.pend = append(op.pend, p)
		}
	}
	for _, op := range order {
		winner := op.pend[op.arb%len(op.pend)]
		op.arb++
		op.owner = e.inPorts[winner]
		rs := e.in[winner].route
		for i, o := range rs.outs {
			if o.op == op {
				rs.granted[i] = true
				rs.nGranted++
			}
		}
	}
	e.outScratch = order[:0]
}

// allocateAtomic grants a request only when every output it needs is free,
// serving requests oldest-first ("in order of arrival"). The wanted ports of
// an unsatisfiable older request are reserved for the rest of the cycle so
// younger single-port traffic cannot starve a waiting fan-out.
//
// Same-cycle ties are broken by a per-switch priority rotation derived from
// the node ID: independent hardware arbiters do not share a global order, and
// a globally consistent tie-break would (unrealistically) hand one broadcast
// every crossbar at once, masking the cyclic-acquisition deadlock of paper
// Fig. 5.
//
// Only the order within one switch matters: a grant reads and writes nothing
// but that switch's output ports, and the requests arrive grouped by switch.
// So each switch's few requests are put in arrival order where they stand
// (the tie key is a bijection on a switch's ports, so the order is total).
func (e *Engine) allocateAtomic(requests []int32) {
	for lo := 0; lo < len(requests); {
		sw := e.nodeOf[requests[lo]]
		hi := lo + 1
		for hi < len(requests) && e.nodeOf[requests[hi]] == sw {
			hi++
		}
		group := requests[lo:hi]
		for i := 1; i < len(group); i++ {
			for j := i; j > 0 && e.arrivedBefore(group[j], group[j-1]); j-- {
				group[j], group[j-1] = group[j-1], group[j]
			}
		}
		for _, p := range group {
			e.grantAtomic(p)
		}
		lo = hi
	}
}

// arrivedBefore orders two requests at one switch: older header first, ties
// by the switch's priority rotation.
func (e *Engine) arrivedBefore(p, q int32) bool {
	if a, b := e.in[p].route.since, e.in[q].route.since; a != b {
		return a < b
	}
	n := e.nodeOf[p]
	return (int(p-n.port0)+n.ID)%len(n.In) < (int(q-n.port0)+n.ID)%len(n.In)
}

// grantAtomic gives in-port p's request all of its outputs if every one is
// free and unreserved, and otherwise reserves them against younger requests.
func (e *Engine) grantAtomic(p int32) {
	rs := e.in[p].route
	if rs.nGranted > 0 {
		// An atomic request never holds a partial set, so this cannot
		// happen unless the mode changed mid-run.
		return
	}
	for _, o := range rs.outs {
		if op := o.op; op.owner != nil || op.reservedCycle == e.cycle {
			for _, o := range rs.outs {
				o.op.reservedCycle = e.cycle
			}
			return
		}
	}
	for i, o := range rs.outs {
		o.op.owner = e.inPorts[p]
		rs.granted[i] = true
		rs.nGranted++
	}
}

// routeHeader runs the switch routing function for the header at in-port p
// and validates the decision, returning the port's new cut-through state (a
// sink state when the packet is dropped).
func (e *Engine) routeHeader(p int32, h *flit.Header) *routeState {
	sw := e.nodeOf[p]
	if sw.Failed {
		return e.sinkPacket(sw, h, "arrived at failed switch")
	}
	dec, err := sw.route(sw, int(p-sw.port0), h)
	if err != nil {
		return e.sinkPacket(sw, h, err.Error())
	}
	if len(dec.Outs) == 0 {
		return e.sinkPacket(sw, h, "routing function returned no outputs")
	}
	for i, o := range dec.Outs {
		if o < 0 || o >= len(sw.Out) {
			panic(fmt.Sprintf("engine: switch %q routed to invalid port %d", sw.Name, o))
		}
		if e.out[sw.port0+int32(o)].down < 0 {
			panic(fmt.Sprintf("engine: switch %q routed to unconnected port %d", sw.Name, o))
		}
		for _, prev := range dec.Outs[:i] {
			if prev == o {
				panic(fmt.Sprintf("engine: switch %q routed to duplicate port %d", sw.Name, o))
			}
		}
	}
	if dec.Provisional && len(dec.Outs) != 1 {
		panic(fmt.Sprintf("engine: switch %q returned a provisional decision with %d outputs (provisional requires exactly 1)", sw.Name, len(dec.Outs)))
	}
	rs := e.newRouteState()
	rs.header = h
	k := len(dec.Outs)
	rs.outs = slices.Grow(rs.outs, k)[:k]
	rs.granted = slices.Grow(rs.granted, k)[:k]
	for i, o := range dec.Outs {
		id := sw.port0 + int32(o)
		rs.outs[i], rs.granted[i] = outRef{sw.Out[o], id, e.out[id].down}, false
		rs.shared = rs.shared || e.out[id].phys >= 0
	}
	rs.rewrite = dec.Rewrite
	rs.since = e.cycle
	rs.provisional = dec.Provisional
	return rs
}

// sinkPacket puts the input port into drop mode for the current packet.
func (e *Engine) sinkPacket(sw *Node, h *flit.Header, reason string) *routeState {
	e.dropped++
	if e.OnDrop != nil {
		e.OnDrop(Drop{At: sw, Header: h, Cycle: e.cycle, Reason: reason})
	}
	rs := e.newRouteState()
	rs.header = h
	rs.sink = true
	return rs
}

// newRouteState takes a state from the pool (or allocates).
func (e *Engine) newRouteState() *routeState {
	if n := len(e.rsFree); n > 0 {
		rs := e.rsFree[n-1]
		e.rsFree = e.rsFree[:n-1]
		e.ctr.RouteStatesReused++
		return rs
	}
	e.ctr.RouteStatesAllocated++
	return newRouteStateValue()
}

// freeRouteState clears a completed state and returns it to the pool.
func (e *Engine) freeRouteState(rs *routeState) {
	rs.header = nil
	rs.rewrite = 0
	rs.outs = rs.outs[:0]
	rs.granted = rs.granted[:0]
	rs.nGranted = 0
	rs.sink = false
	rs.shared = false
	rs.since = 0
	rs.provisional = false
	e.rsFree = append(e.rsFree, rs)
}

// stage is traversal's test of in-port p: whether its packet can move a
// flit this cycle (all outputs granted, a flit at the front, a credit on
// every output; o as in ready). It stages shared physical channels'
// requests, queues a sinking port to drain, and counts a blocked cycle.
func (e *Engine) stage(p int32) (o int32, ok bool) {
	r := &e.in[p]
	rs := r.route
	if rs.sink {
		// Drain dropped packets at one flit per cycle.
		if r.n > 0 {
			e.sunk = append(e.sunk, p)
		}
		return -1, false
	}
	if r.n == 0 {
		return -1, false // waiting for upstream flits; not "blocked" locally
	}
	ok = rs.allGranted()
	for i := 0; ok && i < len(rs.outs); i++ {
		ok = e.free(rs.outs[i].down) > 0
	}
	if !ok {
		r.blocked++
		return -1, false
	}
	if !rs.shared {
		if len(rs.outs) == 1 {
			return rs.outs[0].id, true
		}
		return -1, true
	}
	for _, o := range rs.outs {
		if c := e.out[o.id].phys; c >= 0 {
			pc := e.phys[c]
			if pc.wantStamp != e.cycle {
				pc.wantStamp = e.cycle
				pc.wants = pc.wants[:0]
				e.physScratch = append(e.physScratch, pc)
			}
			pc.wants = append(pc.wants, o.id)
		}
	}
	return -1, true
}

// traverse moves one flit per fully-granted input across its switch.
func (e *Engine) traverse() {
	// Phase A: find ready inputs; allocation found all but the requests.
	readies := e.readyScratch[:0]
	for _, x := range e.routedScratch {
		if x.o != testLater {
			readies = append(readies, x)
		} else if o, ok := e.stage(x.p); ok {
			readies = append(readies, ready{x.p, o})
		}
	}
	physOrder := e.physScratch
	// Phase B: physical-channel arbitration, round-robin over member index.
	for _, pc := range physOrder {
		// Pick the requesting member closest after the arb pointer.
		best := -1
		bestRank := len(pc.members) + 1
		for _, o := range pc.wants {
			mi := pc.memberIndex(o)
			rank := (mi - pc.arb + len(pc.members)) % len(pc.members)
			if rank < bestRank {
				bestRank = rank
				best = mi
			}
		}
		if best >= 0 {
			pc.granted = pc.members[best]
			pc.grantedCycle = e.cycle
			pc.arb = (best + 1) % len(pc.members)
		}
	}
	// Phase C: move flits for inputs whose outputs all won their channels.
	for _, x := range readies {
		p := x.p
		if f := e.front(p); x.o >= 0 && f.Header == nil && !f.Last {
			// A body flit on a plain route: its route state stays cold, and
			// it is copied once, slot to slot.
			e.send(x.o, f)
			e.pop(p)
			e.moves++
			continue
		}
		rs := e.in[p].route
		if rs.shared && !e.committed(rs) {
			e.in[p].blocked++
			continue
		}
		f := e.pop(p)
		e.moves++
		// Fan-out duplicates flits: resident grows by branches-1.
		e.resident += int64(len(rs.outs) - 1)
		// A switch that rewrites the header or replicates the packet forwards
		// copies and keeps the original until the tail leaves; otherwise the
		// header itself moves on.
		copies := rs.rewrite != 0 || len(rs.outs) > 1
		for _, o := range rs.outs {
			branch := f
			if f.Header != nil {
				if copies {
					branch.Header = e.copyHeader(f.Header)
					rs.rewrite.Apply(branch.Header)
				}
				if e.OnForward != nil {
					e.OnForward(e.nodeOf[p], o.op.idx, branch.Header, e.cycle)
				}
			}
			e.send(o.id, &branch)
		}
		if f.Last {
			for _, o := range rs.outs {
				o.op.owner = nil
			}
			if copies {
				e.releaseHeader(rs.header)
			}
			e.freeRouteState(rs)
			e.in[p].route = nil
		}
	}
	// Dropped packets drain last (see the sunk field).
	for _, p := range e.sunk {
		f := e.pop(p)
		e.moves++
		e.resident--
		if f.Last {
			rs := e.in[p].route
			e.releaseHeader(rs.header)
			e.freeRouteState(rs)
			e.in[p].route = nil
		}
	}
	e.sunk = e.sunk[:0]
	e.readyScratch = readies[:0]
	e.physScratch = physOrder[:0]
}

// send puts a flit on out-port o's link, taking one credit: the flit is
// written into the downstream ring now, behind the port's visible flits,
// and lands in the next cycle. At most one flit enters a link per cycle, and
// every flit sent last cycle has landed, so a link carries at most one.
func (e *Engine) send(o int32, f *flit.Flit) {
	op := &e.out[o]
	to := op.down
	r := &e.in[to]
	if r.fly > 0 {
		panic(fmt.Sprintf("engine: two flits entered the link into %s.in%d in cycle %d", e.inPorts[to].Node().Name, e.inPorts[to].idx, e.cycle))
	}
	if int(r.n) >= e.cfg.BufferDepth {
		panic(fmt.Sprintf("engine: buffer overflow at %s.%d (credit accounting bug)", e.inPorts[to].Node().Name, e.inPorts[to].idx))
	}
	*e.at(to, int(r.n)) = *f
	r.fly = 1
	e.arrivals = append(e.arrivals, to)
	if !r.linkActive {
		r.linkActive = true
		e.linksActive++
	}
	op.busy++
}

// committed reports whether every output of rs on a shared physical channel
// won its channel this cycle.
func (e *Engine) committed(rs *routeState) bool {
	for _, o := range rs.outs {
		if c := e.out[o.id].phys; c >= 0 && !e.phys[c].grants(o.id, e.cycle) {
			return false
		}
	}
	return true
}

// grants reports whether the channel granted out-port o in the given cycle.
func (pc *PhysChannel) grants(o int32, cycle int64) bool {
	return pc.granted == o && pc.grantedCycle == cycle
}

// inject moves endpoint source-queue flits onto their links.
func (e *Engine) inject() {
	s := &e.activeInject
	visited := 0
	for i := s.next(-1); i >= 0; i = s.next(i) {
		visited++
		e.injectAt(i)
		if src := &e.src[i]; src.head == len(src.q) {
			s.remove(i)
		}
	}
	e.ctr.InjectVisits += int64(visited)
	e.ctr.InjectVisitsSkipped += int64(len(e.src) - visited)
}

// injectAt sends the next source-queue flit of endpoint i, if its link
// takes one.
func (e *Engine) injectAt(i int) {
	s := &e.src[i]
	if s.head >= len(s.q) {
		return
	}
	o := s.port
	op := &e.out[o]
	if op.down < 0 {
		panic(fmt.Sprintf("engine: endpoint %q has no outbound link", e.endpoints[i].Name))
	}
	if e.credits(o) < 1 {
		return
	}
	f := s.q[s.head]
	s.head++
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	if f.Header != nil && e.OnForward != nil {
		e.OnForward(e.endpoints[i], 0, f.Header, e.cycle)
	}
	e.send(o, &f)
	e.moves++
	if f.Last {
		e.endpoints[i].Sent++
	}
}

func (pc *PhysChannel) memberIndex(o int32) int {
	if i := slices.Index(pc.members, o); i >= 0 {
		return i
	}
	panic("engine: output port not a member of its physical channel")
}
