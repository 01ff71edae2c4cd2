package jobs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"sr2201/internal/campaign"
	"sr2201/internal/core"
	"sr2201/internal/geom"
)

// knobRejections is the one table of incompatible machine knobs: every row
// of core.Config.Validate, stated once as the config that trips it. Each row
// is driven through all three places a machine can be spelled —
// core.NewMachine (TestKnobRejections), the run-spec resolver in mdxfault's
// flag vocabulary (TestKnobRejections) and jobs.DecodeSpec
// (TestDecodeSpecRejectionsNameTheField) — and must be refused under the
// same knob in each.
var knobRejections = []struct {
	name string
	cfg  core.Config // nil Shape = 4x4
	knob string      // the core.Config field Validate names
	// field is the resolver's spelling of knob; job specs prefix it with
	// "fault." / "campaign.".
	field string
	// noJob marks knobs the job-spec wire format cannot spell.
	noJob bool
}{
	{name: "negative packet size", cfg: core.Config{PacketSize: -1}, knob: "PacketSize", field: "packet_size"},
	{name: "negative vcs", cfg: core.Config{VCs: -1}, knob: "VCs", field: "variant.vcs"},
	{name: "negative vcs with adaptive", cfg: core.Config{VCs: -3, Adaptive: true}, knob: "VCs", field: "variant.vcs"},
	{name: "adaptive without lanes", cfg: core.Config{Adaptive: true}, knob: "VCs", field: "variant.vcs"},
	{name: "adaptive on one lane", cfg: core.Config{VCs: 1, Adaptive: true}, knob: "VCs", field: "variant.vcs"},
	{name: "vcs without adaptive", cfg: core.Config{VCs: 2}, knob: "VCs", field: "variant.vcs"},
	{name: "adaptive on separate dxb", cfg: core.Config{VCs: 2, Adaptive: true, DXBSeparate: true}, knob: "Adaptive", field: "variant.adaptive"},
	{name: "adaptive with naive broadcast", cfg: core.Config{VCs: 2, Adaptive: true, NaiveBroadcast: true}, knob: "Adaptive", field: "variant.adaptive", noJob: true},
	{name: "unknown reconfig mode", cfg: core.Config{Reconfig: "always"}, knob: "Reconfig", field: "reconfig.mode"},
	{name: "reconfig on direct-link topology", cfg: core.Config{Topology: "hyperx", Reconfig: core.ReconfigOnFault}, knob: "Reconfig", field: "reconfig.mode"},
	{name: "reconfig with adaptive vcs", cfg: core.Config{VCs: 2, Adaptive: true, Reconfig: core.ReconfigOnDeadlock}, knob: "Reconfig", field: "reconfig.mode"},
	{name: "reconfig with naive broadcast", cfg: core.Config{NaiveBroadcast: true, Reconfig: core.ReconfigBoth}, knob: "Reconfig", field: "reconfig.mode", noJob: true},
	{name: "unknown topology", cfg: core.Config{Topology: "dragonfly"}, knob: "Topology", field: "topology"},
	{name: "dxb-separate on hyperx", cfg: core.Config{Topology: "hyperx", DXBSeparate: true}, knob: "DXBSeparate", field: "variant.dxb_separate"},
	{name: "sxb on hyperx", cfg: core.Config{Topology: "hyperx", SXB: geom.Coord{0, 1}}, knob: "SXB", field: "variant.sxb"},
	{name: "naive broadcast on fullmesh", cfg: core.Config{Shape: geom.MustShape(8), Topology: "fullmesh", NaiveBroadcast: true}, knob: "NaiveBroadcast", field: "naive_broadcast", noJob: true},
	{name: "vcs on direct-link topology", cfg: core.Config{Topology: "hyperx", VCs: 2, Adaptive: true}, knob: "VCs", field: "variant.vcs"},
	{name: "fullmesh needs 1-D", cfg: core.Config{Topology: "fullmesh"}, knob: "Topology", field: "topology"},
	{name: "hyperx line of one router", cfg: core.Config{Shape: geom.MustShape(4, 1), Topology: "hyperx"}, knob: "Topology", field: "topology"},
}

// knobText spells a row's config the way mdxfault's flags (and a replay
// recording) would: coordinates and shape as strings.
func knobText(cfg core.Config) campaign.RunText {
	coord := func(c geom.Coord) string {
		if c == (geom.Coord{}) {
			return ""
		}
		return strings.Trim(c.In(cfg.Shape.Dims()), "()")
	}
	return campaign.RunText{
		Shape:          cfg.Shape.String(),
		Topology:       cfg.Topology,
		Fails:          []string{"rtc:" + strings.Trim(geom.Coord{}.In(cfg.Shape.Dims()), "()") + "@40"},
		Patterns:       []string{"reverse"},
		Epochs:         []int64{12},
		Waves:          4,
		Gap:            24,
		PacketSize:     cfg.PacketSize,
		Variant:        campaign.VariantText{SXB: coord(cfg.SXB), DXB: coord(cfg.DXB), DXBSeparate: cfg.DXBSeparate, VCs: cfg.VCs, Adaptive: cfg.Adaptive},
		Reconfig:       campaign.ReconfigText{Mode: cfg.Reconfig},
		NaiveBroadcast: cfg.NaiveBroadcast,
	}
}

// knobJobs spells a row's config as a fault and a campaign submission.
func knobJobs(t *testing.T, cfg core.Config) (fault, campaignBody []byte) {
	t.Helper()
	text := knobText(cfg)
	variant, reconfig := text.Variant, text.Reconfig
	marshal := func(s Spec) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return marshal(Spec{Kind: KindFault, Fault: &FaultSpec{
			Shape: text.Shape, Topology: text.Topology, Fails: text.Fails, Pattern: text.Patterns[0],
			PacketSize: text.PacketSize, Variant: variant, Reconfig: reconfig}}),
		marshal(Spec{Kind: KindCampaign, Campaign: &CampaignSpec{
			Shape: text.Shape, Topology: text.Topology, Epochs: text.Epochs, Patterns: text.Patterns,
			PacketSize: text.PacketSize, Variant: variant, Reconfig: reconfig}})
}

// TestKnobRejections drives every row through core.NewMachine and through
// the resolver, for a single run and for a campaign.
func TestKnobRejections(t *testing.T) {
	for _, tc := range knobRejections {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Shape == nil {
				cfg.Shape = geom.MustShape(4, 4)
			}
			_, err := core.NewMachine(cfg)
			var ce *core.FieldError
			if !errors.As(err, &ce) || ce.Field != tc.knob {
				t.Errorf("core.NewMachine: rejection %v, want a FieldError naming %q", err, tc.knob)
			}
			text := knobText(cfg)
			_, errSingle := text.Spec()
			text.Fails = nil
			_, errCampaign := text.Config()
			for mode, err := range map[string]error{"single": errSingle, "campaign": errCampaign} {
				var fe *campaign.FieldError
				if !errors.As(err, &fe) || fe.Field != tc.field {
					t.Errorf("resolver (%s): rejection %v, want a FieldError naming %q", mode, err, tc.field)
				}
			}
		})
	}
}
