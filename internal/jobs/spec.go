// Package jobs is the simulation-as-a-service layer: typed job specs with a
// canonical encoding, a bounded FIFO queue with load shedding, a worker pool
// whose sweeps draw from one global parallelism budget, per-job cancellation
// and deadlines, a result cache that dedupes identical submissions to a
// single execution, and an ordered per-job progress-event stream.
//
// The contract that makes it more than plumbing: a job's report artifact is
// byte-identical to the stdout of the equivalent mdxbench/mdxfault CLI run
// for the same spec, at any worker-pool width — the repository's determinism
// guarantee extended across the network boundary. The differential tests pin
// it end to end.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"sr2201/internal/campaign"
	"sr2201/internal/cliutil"
	"sr2201/internal/core"
	"sr2201/internal/experiments"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
)

// Kind selects what a job runs.
type Kind string

const (
	// KindExperiments runs a set of registered experiments (mdxbench).
	KindExperiments Kind = "experiments"
	// KindFault runs one scheduled-fault machine (mdxfault single mode).
	KindFault Kind = "fault"
	// KindCampaign runs the exhaustive single-fault campaign (mdxfault
	// -campaign).
	KindCampaign Kind = "campaign"
)

// Spec is a job submission. Exactly one payload — matching Kind — is set.
// The zero values of optional numeric fields select the CLI defaults, so a
// spec that spells only what a CLI invocation spelled canonicalizes to the
// same execution.
type Spec struct {
	Kind        Kind             `json:"kind"`
	Experiments *ExperimentsSpec `json:"experiments,omitempty"`
	Fault       *FaultSpec       `json:"fault,omitempty"`
	Campaign    *CampaignSpec    `json:"campaign,omitempty"`
}

// ExperimentsSpec mirrors mdxbench: which experiments, at which scale.
type ExperimentsSpec struct {
	// IDs lists experiment ids (case-insensitive), or the single keyword
	// "all".
	IDs []string `json:"ids"`
	// Quick selects the reduced CI-scale sweeps (mdxbench -quick).
	Quick bool `json:"quick,omitempty"`
}

// FaultSpec mirrors mdxfault single mode: one machine, a scheduled fault
// sequence, one traffic pattern. The field order is the spec hash's; the
// blocks are the resolver's own types, so each knob has one JSON spelling.
type FaultSpec struct {
	Shape string `json:"shape"`
	// Topology selects the interconnect (mdxfault -topo): "" or "mdx" is
	// the MD crossbar (canonicalized to ""), "hyperx" and "fullmesh" the
	// direct-link lattices. Crossbar-only features (xb: faults, broadcasts,
	// the variant block) are rejected on direct-link topologies; link:
	// faults are rejected on the MD crossbar.
	Topology string `json:"topology,omitempty"`
	// Fails lists fault schedules, e.g. "rtc:3,4@500", "xb:0:0,2@200" or
	// "link:0,0-3,0@400".
	Fails []string `json:"fails,omitempty"`
	// Presets lists faults installed before any traffic, e.g. "rtc:2,1".
	Presets []string `json:"presets,omitempty"`
	// Broadcasts lists broadcast schedules, e.g. "3,2@250".
	Broadcasts []string `json:"broadcasts,omitempty"`
	// Pattern is "shift+K", "reverse" or "pair:SRC>DST".
	Pattern    string                `json:"pattern"`
	Waves      int                   `json:"waves,omitempty"`
	Gap        int64                 `json:"gap,omitempty"`
	PacketSize int                   `json:"packet_size,omitempty"`
	Horizon    int64                 `json:"horizon,omitempty"`
	Inject     inject.Options        `json:"inject,omitempty"`
	Recovery   recovery.Options      `json:"recovery,omitempty"`
	Variant    campaign.VariantText  `json:"variant,omitempty"`
	Reconfig   campaign.ReconfigText `json:"reconfig,omitempty"`
}

// CampaignSpec mirrors mdxfault -campaign: the exhaustive placement grid.
type CampaignSpec struct {
	Shape string `json:"shape"`
	// Topology selects every cell's interconnect and the placement grid
	// (see FaultSpec.Topology and campaign.PlacementsFor).
	Topology   string                `json:"topology,omitempty"`
	Epochs     []int64               `json:"epochs"`
	Patterns   []string              `json:"patterns"`
	Presets    []string              `json:"presets,omitempty"`
	Broadcasts []string              `json:"broadcasts,omitempty"`
	Waves      int                   `json:"waves,omitempty"`
	Gap        int64                 `json:"gap,omitempty"`
	PacketSize int                   `json:"packet_size,omitempty"`
	Horizon    int64                 `json:"horizon,omitempty"`
	Inject     inject.Options        `json:"inject,omitempty"`
	Recovery   recovery.Options      `json:"recovery,omitempty"`
	Variant    campaign.VariantText  `json:"variant,omitempty"`
	Reconfig   campaign.ReconfigText `json:"reconfig,omitempty"`
}

// Clone returns a deep copy sharing no memory with s, so normalizing the
// copy never mutates the caller's value. Submit clones internally, making
// concurrent submissions of one shared Spec safe.
func (s Spec) Clone() Spec {
	out := s
	if s.Experiments != nil {
		e := *s.Experiments
		e.IDs = append([]string(nil), s.Experiments.IDs...)
		out.Experiments = &e
	}
	if s.Fault != nil {
		f := *s.Fault
		f.Fails = append([]string(nil), s.Fault.Fails...)
		f.Presets = append([]string(nil), s.Fault.Presets...)
		f.Broadcasts = append([]string(nil), s.Fault.Broadcasts...)
		out.Fault = &f
	}
	if s.Campaign != nil {
		c := *s.Campaign
		c.Epochs = append([]int64(nil), s.Campaign.Epochs...)
		c.Patterns = append([]string(nil), s.Campaign.Patterns...)
		c.Presets = append([]string(nil), s.Campaign.Presets...)
		c.Broadcasts = append([]string(nil), s.Campaign.Broadcasts...)
		out.Campaign = &c
	}
	return out
}

// FieldError is a validation rejection. Every invalid spec is rejected with
// one, naming the offending field — the fuzz suite holds the decoder to
// that.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return fmt.Sprintf("jobs: field %q: %s", e.Field, e.Msg) }

func fieldErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Resource ceilings: a public endpoint must bound what one spec may demand.
const (
	maxIDs         = 64
	maxFails       = 64
	maxEpochs      = 64
	maxPatterns    = 16
	maxExtent      = 64
	maxPEs         = 4096
	maxCampaignPEs = 1024
	maxWaves       = 1 << 20
	maxGap         = 1 << 20
	maxPacket      = 4096
	maxHorizon     = 1 << 30
	maxRetry       = 1 << 20
	maxBackoffMul  = 64
	maxRetries     = 64
	maxStall       = 1 << 20
	maxPresets     = 64
	maxBroadcasts  = 64
	maxRecoverCap  = 64
	maxVCs         = 8
)

// DecodeSpec parses and validates a JSON submission. Unknown fields,
// trailing data, type mismatches, and semantic violations are all rejected
// with a *FieldError; a successfully decoded spec is already normalized
// (defaults applied, ids and spellings canonicalized).
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, decodeError(err)
	}
	if dec.More() {
		return Spec{}, fieldErrf("body", "trailing data after the spec object")
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeError converts an encoding/json error into a FieldError naming the
// most precise field the library reports.
func decodeError(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) && typeErr.Field != "" {
		return fieldErrf(typeErr.Field, "cannot decode %s into %s", typeErr.Value, typeErr.Type)
	}
	// DisallowUnknownFields reports `json: unknown field "name"`.
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		name := strings.Trim(strings.TrimPrefix(msg, "json: unknown field "), "\"")
		if name == "" {
			name = "body"
		}
		return fieldErrf(name, "unknown field")
	}
	return fieldErrf("body", "invalid JSON: %v", err)
}

// Normalize validates the spec in place and rewrites it to canonical form:
// defaults applied, ids uppercased, spellings trimmed. Every rejection is a
// *FieldError. After Normalize, Canonical() is the spec's identity.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case KindExperiments, KindFault, KindCampaign:
	case "":
		return fieldErrf("kind", "missing (experiments | fault | campaign)")
	default:
		return fieldErrf("kind", "unknown kind %q (experiments | fault | campaign)", s.Kind)
	}
	if got := map[Kind]bool{
		KindExperiments: s.Experiments != nil,
		KindFault:       s.Fault != nil,
		KindCampaign:    s.Campaign != nil,
	}; !got[s.Kind] {
		return fieldErrf(string(s.Kind), "kind %q needs its %q payload", s.Kind, s.Kind)
	}
	if s.Experiments != nil && s.Kind != KindExperiments {
		return fieldErrf("experiments", "payload does not match kind %q", s.Kind)
	}
	if s.Fault != nil && s.Kind != KindFault {
		return fieldErrf("fault", "payload does not match kind %q", s.Kind)
	}
	if s.Campaign != nil && s.Kind != KindCampaign {
		return fieldErrf("campaign", "payload does not match kind %q", s.Kind)
	}
	switch s.Kind {
	case KindExperiments:
		return s.Experiments.normalize()
	case KindFault:
		return s.Fault.normalize()
	default:
		return s.Campaign.normalize()
	}
}

// Canonical returns the canonical encoding of a normalized spec: its
// deterministic JSON. Two submissions with equal canonical encodings are
// the same job and dedupe to one execution.
func (s *Spec) Canonical() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A normalized spec is always marshalable; this is unreachable.
		panic(fmt.Sprintf("jobs: canonical encoding: %v", err))
	}
	return string(b)
}

func (e *ExperimentsSpec) normalize() error {
	if len(e.IDs) == 0 {
		return fieldErrf("experiments.ids", "needs at least one experiment id")
	}
	if len(e.IDs) > maxIDs {
		return fieldErrf("experiments.ids", "%d ids exceeds maximum %d", len(e.IDs), maxIDs)
	}
	if len(e.IDs) == 1 && strings.EqualFold(strings.TrimSpace(e.IDs[0]), "all") {
		e.IDs = []string{"all"}
		return nil
	}
	canon := make([]string, len(e.IDs))
	for i, id := range e.IDs {
		id = strings.ToUpper(strings.TrimSpace(id))
		if _, ok := experiments.ByID(id); !ok {
			return fieldErrf(fmt.Sprintf("experiments.ids[%d]", i), "unknown experiment %q", e.IDs[i])
		}
		canon[i] = id
	}
	e.IDs = canon
	return nil
}

// parseShape validates a shape string under the service ceilings.
func parseShape(field, s string, maxSize int) (geom.Shape, error) {
	shape, err := cliutil.ParseShape(strings.TrimSpace(s))
	if err != nil {
		return nil, fieldErrf(field, "%v", err)
	}
	size := 1
	for _, e := range shape {
		if e > maxExtent {
			return nil, fieldErrf(field, "extent %d exceeds maximum %d", e, maxExtent)
		}
		size *= e
	}
	if size > maxSize {
		return nil, fieldErrf(field, "%d PEs exceeds maximum %d", size, maxSize)
	}
	return shape, nil
}

// resolved wraps the run-spec resolver's verdict on a job's text: a
// rejection becomes a FieldError under the payload's prefix. The resolver is
// the only place a job's strings are parsed and its knobs cross-checked —
// the same one mdxfault's flags go through — so what the service accepts is
// what the machine builder accepts.
func resolved(prefix string, err error) error {
	if err == nil {
		return nil
	}
	var fe *campaign.FieldError
	if errors.As(err, &fe) {
		return fieldErrf(prefix+"."+fe.Field, "%v", fe.Err)
	}
	return fieldErrf(prefix, "%v", err)
}

// The normalize helpers below apply the service ceilings and the CLI
// defaults and rewrite spellings to canonical form (trimmed; the default
// topology and lane count absent). What the strings mean, and which knobs
// combine, is the resolver's business.

// normalizeTopology canonicalizes the topology name: "mdx", "" and " MDX "
// are one job, so the default MD crossbar becomes the absent field.
func normalizeTopology(field string, topo *string) error {
	t, err := cliutil.ParseTopology(*topo)
	if err != nil {
		return fieldErrf(field, "%v", err)
	}
	if t == core.TopologyMDX {
		t = ""
	}
	*topo = t
	return nil
}

// normalizeCommon checks the wave/gap/packet/horizon block shared by fault
// and campaign specs, applying the CLI defaults for zero values.
func normalizeCommon(prefix string, waves *int, gap *int64, packet *int, horizon *int64) error {
	switch {
	case *waves < 0:
		return fieldErrf(prefix+".waves", "must be non-negative")
	case *waves == 0:
		*waves = 4
	case *waves > maxWaves:
		return fieldErrf(prefix+".waves", "%d exceeds maximum %d", *waves, maxWaves)
	}
	switch {
	case *gap < 0:
		return fieldErrf(prefix+".gap", "must be non-negative")
	case *gap == 0:
		*gap = 24
	case *gap > maxGap:
		return fieldErrf(prefix+".gap", "%d exceeds maximum %d", *gap, maxGap)
	}
	if *packet < 0 || *packet > maxPacket {
		return fieldErrf(prefix+".packet_size", "must be in [0, %d]", maxPacket)
	}
	switch {
	case *horizon < 0:
		return fieldErrf(prefix+".horizon", "must be non-negative")
	case *horizon == 0:
		*horizon = 50_000
	case *horizon > maxHorizon:
		return fieldErrf(prefix+".horizon", "%d exceeds maximum %d", *horizon, maxHorizon)
	}
	return nil
}

// normalizeList bounds and trims one of a spec's string lists.
func normalizeList(field string, list []string, max int) error {
	if len(list) > max {
		return fieldErrf(field, "%d entries exceeds maximum %d", len(list), max)
	}
	for i, s := range list {
		list[i] = strings.TrimSpace(s)
	}
	return nil
}

func normalizeRecovery(prefix string, r *recovery.Options) error {
	if r.StallThreshold > maxStall {
		return fieldErrf(prefix+".recovery.stall_threshold", "%d exceeds maximum %d", r.StallThreshold, maxStall)
	}
	if r.MaxRecoveries > maxRecoverCap {
		return fieldErrf(prefix+".recovery.max_recoveries", "%d exceeds maximum %d", r.MaxRecoveries, maxRecoverCap)
	}
	return nil
}

func normalizeReconfig(prefix string, r *campaign.ReconfigText) error {
	r.Mode = strings.ToLower(strings.TrimSpace(r.Mode))
	return nil
}

func normalizeVariant(prefix string, v *campaign.VariantText) error {
	v.SXB = strings.TrimSpace(v.SXB)
	v.DXB = strings.TrimSpace(v.DXB)
	if v.VCs > maxVCs {
		return fieldErrf(prefix+".variant.vcs", "%d exceeds maximum %d", v.VCs, maxVCs)
	}
	// An explicit single-lane count canonicalizes to the absent field, so
	// "vcs": 1 and an unset count dedupe to the same job.
	if v.VCs == 1 {
		v.VCs = 0
	}
	return nil
}

func normalizeInject(prefix string, in *inject.Options) error {
	if in.RetryAfter < 0 || in.RetryAfter > maxRetry {
		return fieldErrf(prefix+".inject.retry_after", "must be in [0, %d]", maxRetry)
	}
	if in.Backoff < 0 || in.Backoff > maxBackoffMul {
		return fieldErrf(prefix+".inject.backoff", "must be in [0, %d]", maxBackoffMul)
	}
	if in.MaxRetries < 0 || in.MaxRetries > maxRetries {
		return fieldErrf(prefix+".inject.max_retries", "must be in [0, %d]", maxRetries)
	}
	if in.StallThreshold < 0 || in.StallThreshold > maxStall {
		return fieldErrf(prefix+".inject.stall", "must be in [0, %d]", maxStall)
	}
	if in.Retransmit {
		// The mdxfault flag defaults, applied only when retransmission is on
		// (they are inert otherwise and stay as submitted).
		if in.RetryAfter == 0 {
			in.RetryAfter = 64
		}
		if in.Backoff == 0 {
			in.Backoff = 2
		}
		if in.MaxRetries == 0 {
			in.MaxRetries = 4
		}
	}
	return nil
}

func (f *FaultSpec) normalize() error {
	shape, err := parseShape("fault.shape", f.Shape, maxPEs)
	if err != nil {
		return err
	}
	f.Shape = shape.String()
	if len(f.Fails) == 0 && len(f.Presets) == 0 && len(f.Broadcasts) == 0 {
		return fieldErrf("fault.fails", "needs a FAULT@CYCLE schedule, a preset fault or a broadcast")
	}
	f.Pattern = strings.TrimSpace(f.Pattern)
	// Every helper runs (they only canonicalize in place); the first
	// rejection in field order is the one reported.
	for _, err := range []error{
		normalizeTopology("fault.topology", &f.Topology),
		normalizeList("fault.fails", f.Fails, maxFails),
		normalizeList("fault.presets", f.Presets, maxPresets),
		normalizeList("fault.broadcasts", f.Broadcasts, maxBroadcasts),
		normalizeCommon("fault", &f.Waves, &f.Gap, &f.PacketSize, &f.Horizon),
		normalizeRecovery("fault", &f.Recovery),
		normalizeVariant("fault", &f.Variant),
		normalizeReconfig("fault", &f.Reconfig),
		normalizeInject("fault", &f.Inject),
	} {
		if err != nil {
			return err
		}
	}
	_, err = f.text().Spec()
	return resolved("fault", err)
}

func (c *CampaignSpec) normalize() error {
	shape, err := parseShape("campaign.shape", c.Shape, maxCampaignPEs)
	if err != nil {
		return err
	}
	c.Shape = shape.String()
	if len(c.Epochs) > maxEpochs {
		return fieldErrf("campaign.epochs", "%d epochs exceeds maximum %d", len(c.Epochs), maxEpochs)
	}
	for i, e := range c.Epochs {
		if e > maxHorizon {
			return fieldErrf(fmt.Sprintf("campaign.epochs[%d]", i), "must be in [0, %d]", maxHorizon)
		}
	}
	for _, err := range []error{
		normalizeTopology("campaign.topology", &c.Topology),
		normalizeList("campaign.patterns", c.Patterns, maxPatterns),
		normalizeList("campaign.presets", c.Presets, maxPresets),
		normalizeList("campaign.broadcasts", c.Broadcasts, maxBroadcasts),
		normalizeCommon("campaign", &c.Waves, &c.Gap, &c.PacketSize, &c.Horizon),
		normalizeRecovery("campaign", &c.Recovery),
		normalizeVariant("campaign", &c.Variant),
		normalizeReconfig("campaign", &c.Reconfig),
		normalizeInject("campaign", &c.Inject),
	} {
		if err != nil {
			return err
		}
	}
	_, err = c.text().Config()
	return resolved("campaign", err)
}

// ReadSpec decodes a spec from a reader (the HTTP body), bounding the read.
func ReadSpec(r io.Reader, limit int64) (Spec, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return Spec{}, fieldErrf("body", "read: %v", err)
	}
	if int64(len(data)) > limit {
		return Spec{}, fieldErrf("body", "spec exceeds %d bytes", limit)
	}
	return DecodeSpec(data)
}
