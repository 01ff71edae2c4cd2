package campaign

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestParseFlagsRejectionsNameTheFlag parses argument lists through the one
// registration mdxfault and mdxreplay share and checks that the resolver's
// rejection is reported under the flag that spelled it: in a single run
// (both commands) and in a campaign (mdxfault -campaign). A retired flag
// (-pivot, -reconfig-drain) is no longer defined, so the flag set itself
// refuses it by name.
func TestParseFlagsRejectionsNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args, want string
		campaign   bool
	}{
		{args: "-fail rtc:1,1@40 -gap 0", want: "-gap: "},
		{args: "-fail rtc:1,1@40 -waves 0", want: "-waves: "},
		{args: "-fail rtc:9,9@40", want: "-fail: "},
		{args: "-fail rtc:1,1@40 -preset rtc:1,2 -preset xb:7:0,0", want: "-preset: "},
		{args: "-broadcast 3,2", want: "-broadcast: "},
		{args: "-fail rtc:1,1@40 -patterns spiral", want: "-patterns: "},
		{args: "-fail rtc:1,1@40 -patterns shift+5,reverse", want: "-patterns: "},
		{args: "-fail rtc:1,1@40 -vcs 2", want: "-vcs: "},
		{args: "-fail rtc:1,1@40 -dxb 0,3", want: "-dxb: "},
		{args: "-fail rtc:1,1@40 -stall-threshold 64", want: "-recover: "},
		{args: "-fail rtc:1,1@40 -reconfig-drain 5", want: "flag provided but not defined: -reconfig-drain"},
		{args: "-fail rtc:1,1@40 -reconfig always", want: "-reconfig: "},
		{args: "-fail rtc:1,1@40 -topo dragonfly", want: "-topo: "},
		{args: "-fail rtc:1,1@40 -vcs 2 -adaptive -naive-broadcast", want: "-adaptive: "},
		{args: "-shape 8 -topo fullmesh -fail rtc:1@40 -naive-broadcast", want: "-naive-broadcast: "},
		{args: "-topo hyperx -fail rtc:1,1@40 -pivot", want: "flag provided but not defined: -pivot"},
		{args: "-patterns shift+5,spiral", want: "-patterns: ", campaign: true},
		{args: "-fail rtc:1,1@40", want: "-fail: ", campaign: true},
		{args: "-vcs 2", want: "-vcs: ", campaign: true},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var text RunText
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			err := text.ParseFlags(fs, append([]string{"-shape", "4x4"}, strings.Fields(tc.args)...))
			switch {
			case err != nil:
			case tc.campaign:
				text.Epochs = []int64{12}
				_, err = text.Config()
			default:
				_, err = text.Spec()
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if got := FlagError(err).Error(); !strings.HasPrefix(got, tc.want) {
				t.Errorf("reported as %q, want the prefix %q", got, tc.want)
			}
		})
	}
}

// TestParseFlagsDefaults: an empty argument list spells the CLI defaults.
func TestParseFlagsDefaults(t *testing.T) {
	var text RunText
	if err := text.ParseFlags(flag.NewFlagSet("run", flag.ContinueOnError), nil); err != nil {
		t.Fatal(err)
	}
	if text.Shape != "8x8" || text.Waves != 4 || text.Gap != 24 || text.Horizon != 50_000 ||
		text.Inject.RetryAfter != 64 || text.Inject.Backoff != 2 || text.Inject.MaxRetries != 4 ||
		len(text.Patterns) != 1 || text.Patterns[0] != "shift+5" {
		t.Errorf("defaults: %+v", text)
	}
}
