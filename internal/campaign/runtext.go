package campaign

// The textual spelling of a run and its one resolver: mdxfault's flags, a
// job submission's JSON and a replay recording all fill a RunText, and
// Spec / Config turn it into the values the runners take. Every string is
// parsed here and nowhere else, and every rejection names the field it came
// from.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"sr2201/internal/cliutil"
	"sr2201/internal/core"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
)

// FieldError is a rejected RunText (or Spec) field. Field uses the job-spec
// vocabulary — "fails[2]", "variant.sxb", "reconfig.mode" — and callers
// prefix their own spelling: mdxserve "fault." or "campaign.", the CLIs the
// flag's dash (FlagError).
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Err.Error() }
func (e *FieldError) Unwrap() error { return e.Err }

func fieldErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Err: fmt.Errorf(format, args...)}
}

// VariantText spells the crossbar design under test: coordinates like "0,3"
// (empty = the all-zero line), the separate-D-XB switch, and the
// virtual-channel pair.
type VariantText struct {
	SXB         string `json:"sxb,omitempty"`
	DXB         string `json:"dxb,omitempty"`
	DXBSeparate bool   `json:"dxb_separate,omitempty"`
	VCs         int    `json:"vcs,omitempty"`
	Adaptive    bool   `json:"adaptive,omitempty"`
}

// ReconfigText spells online reconfiguration: the trigger mode ("" = off,
// case and surrounding whitespace forgiven) and the drain budget.
type ReconfigText struct {
	Mode        string `json:"mode,omitempty"`
	DrainBudget int    `json:"drain_budget,omitempty"`
}

// RunText is a run as its callers spell it: strings where there is
// something to parse, numbers and option structs where there is not. Its
// JSON is a replay recording's spec; the job specs use the same names.
type RunText struct {
	Shape    string `json:"shape"`
	Topology string `json:"topology,omitempty"`
	// Fails are FAULT@CYCLE schedules ("rtc:3,4@500"); campaigns have none.
	Fails []string `json:"fails,omitempty"`
	// Presets are faults installed before traffic ("rtc:2,1").
	Presets []string `json:"presets,omitempty"`
	// Broadcasts are SRC@CYCLE schedules ("3,2@250"), sent at PacketSize.
	Broadcasts []string `json:"broadcasts,omitempty"`
	// Patterns are pattern names (see ParsePattern); a single run takes
	// exactly one.
	Patterns []string `json:"patterns"`
	// Epochs are a campaign's fault-activation cycles.
	Epochs []int64 `json:"epochs,omitempty"`

	Waves      int              `json:"waves,omitempty"`
	Gap        int64            `json:"gap,omitempty"`
	PacketSize int              `json:"packet_size,omitempty"`
	Horizon    int64            `json:"horizon,omitempty"`
	Inject     inject.Options   `json:"inject"`
	Recovery   recovery.Options `json:"recovery"`
	Variant    VariantText      `json:"variant"`
	Reconfig   ReconfigText     `json:"reconfig"`

	NaiveBroadcast bool `json:"naive_broadcast,omitempty"`
	PivotLastDim   bool `json:"pivot_last_dim,omitempty"`
}

// wireField maps a core.Config field onto the RunText vocabulary.
var wireField = map[string]string{
	"Shape":          "shape",
	"Topology":       "topology",
	"PacketSize":     "packet_size",
	"SXB":            "variant.sxb",
	"DXB":            "variant.dxb",
	"DXBSeparate":    "variant.dxb_separate",
	"VCs":            "variant.vcs",
	"Adaptive":       "variant.adaptive",
	"NaiveBroadcast": "naive_broadcast",
	"PivotLastDim":   "pivot_last_dim",
	"Reconfig":       "reconfig.mode",
}

// wire names err's field: the mapped core.Config field when the rejection
// came out of core.Config.Validate, otherwise field.
func wire(field string, err error) error {
	var ce *core.FieldError
	if errors.As(err, &ce) {
		if f, ok := wireField[ce.Field]; ok {
			field = f
		}
		return &FieldError{Field: field, Err: errors.New(ce.Msg)}
	}
	return &FieldError{Field: field, Err: err}
}

// Spec resolves a single run.
func (t RunText) Spec() (Spec, error) {
	if len(t.Patterns) != 1 {
		return Spec{}, fieldErrf("pattern", "a single run takes exactly one pattern, got %d", len(t.Patterns))
	}
	cfg, events, err := t.resolve(true)
	if err != nil {
		return Spec{}, err
	}
	return cfg.cell(events, cfg.Patterns[0]), nil
}

// Config resolves a campaign: the placement grid crossed with Epochs and
// Patterns. Parallel, Store and the hooks are the caller's to add.
func (t RunText) Config() (Config, error) {
	if len(t.Fails) > 0 {
		return Config{}, fieldErrf("fails", "a fault schedule selects a single run; a campaign enumerates every placement itself")
	}
	if len(t.Epochs) == 0 {
		return Config{}, fieldErrf("epochs", "needs at least one activation cycle")
	}
	for i, e := range t.Epochs {
		if e < 0 {
			return Config{}, fieldErrf(fmt.Sprintf("epochs[%d]", i), "negative activation cycle %d", e)
		}
	}
	if len(t.Patterns) == 0 {
		return Config{}, fieldErrf("patterns", "needs at least one pattern")
	}
	cfg, _, err := t.resolve(false)
	return cfg, err
}

// resolve parses every string, applies the spelling rules (knobs that would
// silently do nothing are rejected) and runs the knob-compatibility table
// over the machine the run describes. single selects the field a bad
// pattern is reported under: "pattern", or "patterns[i]" for a campaign.
func (t RunText) resolve(single bool) (Config, []inject.Event, error) {
	fail := func(field string, err error) (Config, []inject.Event, error) {
		return Config{}, nil, wire(field, err)
	}
	shape, err := cliutil.ParseShape(t.Shape)
	if err != nil {
		return fail("shape", err)
	}
	topology, err := cliutil.ParseTopology(t.Topology)
	if err != nil {
		return fail("topology", err)
	}
	if t.Waves < 1 {
		return fail("waves", fmt.Errorf("%d waves; must be at least 1", t.Waves))
	}
	if t.Gap < 1 {
		return fail("gap", fmt.Errorf("%d cycles between waves; must be at least 1", t.Gap))
	}
	cfg := Config{
		Shape:          shape,
		Topology:       topology,
		Epochs:         t.Epochs,
		Waves:          t.Waves,
		Gap:            t.Gap,
		PacketSize:     t.PacketSize,
		Inject:         t.Inject,
		Recovery:       t.Recovery,
		Horizon:        t.Horizon,
		DXBSeparate:    t.Variant.DXBSeparate,
		NaiveBroadcast: t.NaiveBroadcast,
		PivotLastDim:   t.PivotLastDim,
		VCs:            t.Variant.VCs,
		Adaptive:       t.Variant.Adaptive,
	}
	var events []inject.Event
	for i, s := range t.Fails {
		f, cycle, err := cliutil.ParseScheduledFault(s, shape)
		if err == nil {
			err = cliutil.CheckFaultTopology(f, topology)
		}
		if err != nil {
			return fail(fmt.Sprintf("fails[%d]", i), err)
		}
		events = append(events, inject.Event{Cycle: cycle, Fault: f})
	}
	for i, s := range t.Presets {
		f, err := cliutil.ParseFaultIn(s, shape)
		if err == nil {
			err = cliutil.CheckFaultTopology(f, topology)
		}
		if err != nil {
			return fail(fmt.Sprintf("presets[%d]", i), err)
		}
		cfg.Preset = append(cfg.Preset, f)
	}
	for i, s := range t.Broadcasts {
		src, cycle, err := cliutil.ParseBroadcast(s, shape)
		if err != nil {
			return fail(fmt.Sprintf("broadcasts[%d]", i), err)
		}
		cfg.Broadcasts = append(cfg.Broadcasts, Broadcast{Cycle: cycle, Src: src, Size: t.PacketSize})
	}
	for i, name := range t.Patterns {
		p, err := ParsePattern(name)
		if err != nil {
			if single {
				return fail("pattern", err)
			}
			return fail(fmt.Sprintf("patterns[%d]", i), err)
		}
		cfg.Patterns = append(cfg.Patterns, p)
	}
	if err := checkRecovery(t.Recovery); err != nil {
		return fail("recovery", err)
	}
	if cfg.Reconfig, cfg.ReconfigDrainBudget, err = reconfigOptions(t.Reconfig.Mode, t.Reconfig.DrainBudget); err != nil {
		return fail("reconfig.drain_budget", err)
	}
	coordIn := func(s string) (geom.Coord, error) {
		c, err := cliutil.ParseCoord(s, shape.Dims())
		if err == nil && !shape.Contains(c) {
			err = fmt.Errorf("coordinate %q outside shape %s", s, shape)
		}
		return c, err
	}
	if t.Variant.SXB != "" {
		if cfg.SXB, err = coordIn(t.Variant.SXB); err != nil {
			return fail("variant.sxb", err)
		}
	}
	if t.Variant.DXB != "" {
		if !t.Variant.DXBSeparate {
			return fail("variant.dxb", errors.New("needs the separate-D-XB switch (the unified design has no second crossbar)"))
		}
		if cfg.DXB, err = coordIn(t.Variant.DXB); err != nil {
			return fail("variant.dxb", err)
		}
	}
	// One probe cell stands for the whole grid: cells differ only in fault
	// schedule and pattern, which no knob rule reads.
	probe := cfg.cell(events, cfg.Patterns[0])
	if err := probe.normalize(); err != nil {
		return Config{}, nil, err
	}
	mc := probe.machineConfig()
	if err := mc.Validate(); err != nil {
		return fail("variant", err)
	}
	return cfg, events, nil
}

// checkRecovery rejects the recovery spellings that silently do nothing:
// negative knobs, and tuning knobs without the enable switch (knobs of 0
// select the package defaults). Its messages, and reconfigOptions', keep the
// "cliutil:" prefix that mdxfault and job errors print.
func checkRecovery(o recovery.Options) error {
	switch {
	case o.StallThreshold < 0:
		return fmt.Errorf("cliutil: negative recovery stall threshold %d", o.StallThreshold)
	case o.MaxRecoveries < 0:
		return fmt.Errorf("cliutil: negative recovery cap %d", o.MaxRecoveries)
	case !o.Enabled && o.StallThreshold != 0:
		return fmt.Errorf("cliutil: recovery stall threshold %d needs -recover", o.StallThreshold)
	case !o.Enabled && o.MaxRecoveries != 0:
		return fmt.Errorf("cliutil: recovery cap %d needs -recover", o.MaxRecoveries)
	}
	return nil
}

// reconfigOptions canonicalizes the reconfiguration mode and drain budget
// (case and surrounding whitespace of the mode are forgiven; the empty mode
// disables online reconfiguration, a budget of 0 selects
// reconfig.DefaultDrainBudget) and rejects the spellings that silently do
// nothing: a negative drain budget, and a budget without the enable flag.
// Which modes exist is the knob table's statement (core.Config.Validate).
func reconfigOptions(mode string, drainBudget int) (string, int, error) {
	cfg := core.Config{Reconfig: strings.ToLower(strings.TrimSpace(mode))}
	if err := cfg.Validate(); err != nil {
		return "", 0, err
	}
	if drainBudget < 0 {
		return "", 0, fmt.Errorf("cliutil: negative reconfig drain budget %d", drainBudget)
	}
	if cfg.Reconfig == "" && drainBudget != 0 {
		return "", 0, fmt.Errorf("cliutil: reconfig drain budget %d needs the reconfig mode", drainBudget)
	}
	return cfg.Reconfig, drainBudget, nil
}

// parsePairCoord parses one "2,1"-style endpoint of a pair pattern,
// returning the coordinate and its dimensionality.
func parsePairCoord(s string) (geom.Coord, int, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) < 1 || len(parts) > geom.MaxDims {
		return geom.Coord{}, 0, fmt.Errorf("coordinate %q needs 1..%d components", s, geom.MaxDims)
	}
	var c geom.Coord
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return geom.Coord{}, 0, fmt.Errorf("bad coordinate component %q", p)
		}
		c[i] = v
	}
	return c, len(parts), nil
}

// ParsePattern parses one traffic-pattern name: shift+K | reverse |
// pair:SRC>DST. The CLI and the job server share it so they accept
// identical spellings.
func ParsePattern(name string) (Pattern, error) {
	name = strings.TrimSpace(name)
	switch {
	case name == "reverse":
		return Reverse(), nil
	case strings.HasPrefix(name, "shift+"):
		k, err := strconv.Atoi(strings.TrimPrefix(name, "shift+"))
		if err != nil || k < 1 {
			return Pattern{}, fmt.Errorf("campaign: bad shift pattern %q", name)
		}
		return Shift(k), nil
	case strings.HasPrefix(name, "pair:"):
		rest := strings.TrimPrefix(name, "pair:")
		halves := strings.Split(rest, ">")
		if len(halves) != 2 {
			return Pattern{}, fmt.Errorf("campaign: bad pair pattern %q (want pair:SRC>DST)", name)
		}
		src, sd, err := parsePairCoord(halves[0])
		if err != nil {
			return Pattern{}, fmt.Errorf("campaign: bad pair pattern %q: %v", name, err)
		}
		dst, dd, err := parsePairCoord(halves[1])
		if err != nil {
			return Pattern{}, fmt.Errorf("campaign: bad pair pattern %q: %v", name, err)
		}
		if sd != dd {
			return Pattern{}, fmt.Errorf("campaign: pair pattern %q mixes %d- and %d-dimensional endpoints", name, sd, dd)
		}
		if src == dst {
			return Pattern{}, fmt.Errorf("campaign: pair pattern %q sends to itself", name)
		}
		return Pair(src, dst, sd), nil
	default:
		return Pattern{}, fmt.Errorf("campaign: unknown pattern %q (shift+K | reverse | pair:SRC>DST)", name)
	}
}

// pairComplete reports whether a "pair:..." spec has both endpoints: a '>'
// with as many destination components as source components. SplitPatterns
// uses it to re-join the comma-separated tokens of one pair spec.
func pairComplete(s string) bool {
	rest := strings.TrimPrefix(strings.TrimSpace(s), "pair:")
	gt := strings.IndexByte(rest, '>')
	if gt < 0 {
		return false
	}
	return strings.Count(rest[gt+1:], ",") >= strings.Count(rest[:gt], ",")
}

// SplitPatterns splits a comma-separated pattern list into names. Pair
// specs contain commas of their own ("pair:0,1>2,2"); their tokens are
// re-joined until the destination is as long as the source.
func SplitPatterns(s string) []string {
	tokens := strings.Split(s, ",")
	var out []string
	for i := 0; i < len(tokens); i++ {
		name := tokens[i]
		if strings.HasPrefix(strings.TrimSpace(name), "pair:") {
			for !pairComplete(name) && i+1 < len(tokens) {
				i++
				name += "," + tokens[i]
			}
		}
		out = append(out, name)
	}
	return out
}

// ParseEpochs parses a comma-separated list of non-negative activation
// cycles.
func ParseEpochs(s string) ([]int64, error) {
	var out []int64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("campaign: bad epoch %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: empty epoch list")
	}
	return out, nil
}
