package cliutil

import (
	"strings"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

func TestParseShape(t *testing.T) {
	s, err := ParseShape("4x3")
	if err != nil || s.Dims() != 2 || s[0] != 4 || s[1] != 3 {
		t.Errorf("ParseShape(4x3) = %v, %v", s, err)
	}
	if _, err := ParseShape("4xq"); err == nil {
		t.Error("bad shape accepted")
	}
	if _, err := ParseShape("4x0"); err == nil {
		t.Error("zero extent accepted")
	}
	s, err = ParseShape(" 2x3x4 ")
	if err != nil || s.Dims() != 3 {
		t.Errorf("whitespace shape = %v, %v", s, err)
	}
}

func TestParseCoord(t *testing.T) {
	c, err := ParseCoord("2,1", 2)
	if err != nil || c != (geom.Coord{2, 1}) {
		t.Errorf("ParseCoord = %v, %v", c, err)
	}
	if _, err := ParseCoord("2", 2); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := ParseCoord("2,x", 2); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestParseFault(t *testing.T) {
	f, err := ParseFault("rtc:2,1", 2)
	if err != nil || f.Kind != fault.KindRouter || f.Coord != (geom.Coord{2, 1}) {
		t.Errorf("rtc fault = %+v, %v", f, err)
	}
	f, err = ParseFault("xb:1:3,0", 2)
	if err != nil || f.Kind != fault.KindXB || f.Line.Dim != 1 || f.Line.Fixed != (geom.Coord{3, 0}) {
		t.Errorf("xb fault = %+v, %v", f, err)
	}
	for _, bad := range []string{"nope:1,1", "xb:9:0,0", "xb:0,0", "rtc:a,b", "xb:q:0,0"} {
		if _, err := ParseFault(bad, 2); err == nil {
			t.Errorf("bad fault %q accepted", bad)
		}
	}
}

func TestParseFaultErrorPaths(t *testing.T) {
	// Malformed rtc: specs.
	for _, bad := range []string{"rtc:", "rtc:1", "rtc:1,2,3", "rtc:1;2", "rtc:1,"} {
		if _, err := ParseFault(bad, 2); err == nil {
			t.Errorf("malformed rtc spec %q accepted", bad)
		}
	}
	// Malformed xb: specs.
	for _, bad := range []string{"xb:", "xb::1,2", "xb:-1:1,2", "xb:2:1,2", "xb:0:", "xb:0:1", "xb:1:1,2,3"} {
		if _, err := ParseFault(bad, 2); err == nil {
			t.Errorf("malformed xb spec %q accepted", bad)
		}
	}
}

func TestParseFaultInValidatesShape(t *testing.T) {
	shape := geom.MustShape(4, 3)
	if f, err := ParseFaultIn("rtc:3,2", shape); err != nil || f.Coord != (geom.Coord{3, 2}) {
		t.Errorf("in-shape fault = %+v, %v", f, err)
	}
	// Dimensionally valid but out of shape: ParseFault accepts, ParseFaultIn
	// must not.
	for _, bad := range []string{"rtc:4,0", "rtc:0,3", "xb:0:0,3", "xb:1:4,0"} {
		if _, err := ParseFault(bad, shape.Dims()); err != nil {
			t.Fatalf("spec %q should be dimensionally parseable", bad)
		}
		if _, err := ParseFaultIn(bad, shape); err == nil {
			t.Errorf("out-of-shape fault %q accepted", bad)
		}
	}
}

func TestParseScheduledFault(t *testing.T) {
	shape := geom.MustShape(4, 3)
	f, cycle, err := ParseScheduledFault("rtc:2,1@500", shape)
	if err != nil || f.Kind != fault.KindRouter || f.Coord != (geom.Coord{2, 1}) || cycle != 500 {
		t.Errorf("schedule = %+v @%d, %v", f, cycle, err)
	}
	f, cycle, err = ParseScheduledFault("xb:1:3,0@0", shape)
	if err != nil || f.Kind != fault.KindXB || f.Line.Dim != 1 || cycle != 0 {
		t.Errorf("xb schedule = %+v @%d, %v", f, cycle, err)
	}
	for _, bad := range []string{
		"rtc:2,1",       // no cycle
		"rtc:2,1@",      // empty cycle
		"rtc:2,1@x",     // non-numeric cycle
		"rtc:2,1@-5",    // negative cycle
		"rtc:2,1@1.5",   // non-integer cycle
		"rtc:4,0@10",    // out of shape
		"xb:0:0,3@10",   // line out of shape
		"nope:1,1@10",   // unknown kind
		"@10",           // no fault
		"rtc:2,1@10@20", // the last @ splits: "rtc:2,1@10" is no valid fault
	} {
		if _, _, err := ParseScheduledFault(bad, shape); err == nil {
			t.Errorf("bad schedule %q accepted", bad)
		}
	}
}

// TestParseShapeForms table-tests the relaxed shape spellings: surrounding
// whitespace and an uppercase (or mixed) X separator.
func TestParseShapeForms(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"8x8", []int{8, 8}},
		{"8X8", []int{8, 8}},
		{" 8X8 ", []int{8, 8}},
		{"4X4x4", []int{4, 4, 4}},
		{"\t4 x 4\n", []int{4, 4}},
	}
	for _, tc := range good {
		s, err := ParseShape(tc.in)
		if err != nil {
			t.Errorf("ParseShape(%q): %v", tc.in, err)
			continue
		}
		if s.Dims() != len(tc.want) {
			t.Errorf("ParseShape(%q) = %v, want dims %d", tc.in, s, len(tc.want))
			continue
		}
		for i, n := range tc.want {
			if s[i] != n {
				t.Errorf("ParseShape(%q)[%d] = %d, want %d", tc.in, i, s[i], n)
			}
		}
	}
	bad := []string{"", "   ", "x8", "8x", "8xx8", "8X", "X8", "8Y8", "8 8", "-4x4", "8x 8x", "8,8"}
	for _, in := range bad {
		if s, err := ParseShape(in); err == nil {
			t.Errorf("ParseShape(%q) = %v, want error", in, s)
		}
	}
}

// TestParseCoordForms table-tests the relaxed coordinate spellings.
func TestParseCoordForms(t *testing.T) {
	good := []struct {
		in   string
		dims int
		want geom.Coord
	}{
		{"2,1", 2, geom.Coord{2, 1}},
		{" 2,1 ", 2, geom.Coord{2, 1}},
		{"2 , 1", 2, geom.Coord{2, 1}},
		{"\t0,3,2\n", 3, geom.Coord{0, 3, 2}},
	}
	for _, tc := range good {
		c, err := ParseCoord(tc.in, tc.dims)
		if err != nil || c != tc.want {
			t.Errorf("ParseCoord(%q, %d) = %v, %v; want %v", tc.in, tc.dims, c, err, tc.want)
		}
	}
	bad := []struct {
		in   string
		dims int
	}{
		{"", 2},
		{"  ", 2},
		{",1", 2},
		{"2,", 2},
		{"2,,1", 3},
		{"2;1", 2},
		{"2 1", 2},
		{"2,1,0", 2},
	}
	for _, tc := range bad {
		if c, err := ParseCoord(tc.in, tc.dims); err == nil {
			t.Errorf("ParseCoord(%q, %d) = %v, want error", tc.in, tc.dims, c)
		}
	}
}

// TestParseBroadcast table-tests the SRC@CYCLE broadcast-schedule syntax,
// error paths included.
func TestParseBroadcast(t *testing.T) {
	shape := geom.MustShape(4, 4)
	good := []struct {
		in    string
		src   geom.Coord
		cycle int64
	}{
		{"3,2@250", geom.Coord{3, 2}, 250},
		{"0,0@0", geom.Coord{0, 0}, 0},
		{" 1,3 @ 40 ", geom.Coord{1, 3}, 40},
	}
	for _, tc := range good {
		src, cycle, err := ParseBroadcast(tc.in, shape)
		if err != nil || src != tc.src || cycle != tc.cycle {
			t.Errorf("ParseBroadcast(%q) = %v, %d, %v; want %v, %d", tc.in, src, cycle, err, tc.src, tc.cycle)
		}
	}
	bad := []string{
		"",         // empty
		"3,2",      // no cycle
		"@250",     // no source
		"3,2@",     // empty cycle
		"3,2@-1",   // negative cycle
		"3,2@x",    // non-numeric cycle
		"3@250",    // wrong dimensionality
		"4,0@250",  // outside shape
		"3,2@@250", // the last @ splits "3,2@" / "250"
		"3;2@250",  // bad separator
	}
	for _, in := range bad {
		if src, cycle, err := ParseBroadcast(in, shape); err == nil {
			t.Errorf("ParseBroadcast(%q) = %v, %d, want error", in, src, cycle)
		}
	}
}

func TestParseTopology(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "", want: "mdx"},
		{in: "mdx", want: "mdx"},
		{in: "hyperx", want: "hyperx"},
		{in: "fullmesh", want: "fullmesh"},
		{in: " HyperX ", want: "hyperx"}, // case and whitespace forgiven
		{in: "MDX", want: "mdx"},
		{in: "torus", wantErr: true},
		{in: "hyper-x", wantErr: true},
		{in: "mesh", wantErr: true},
	}
	for _, tc := range tests {
		got, err := ParseTopology(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseTopology(%q) = %q, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseTopology(%q) = %q, %v, want %q", tc.in, got, err, tc.want)
		}
	}
}

func TestParseLinkFault(t *testing.T) {
	f, err := ParseFault("link:0,0-3,0", 2)
	if err != nil || f.Kind != fault.KindLink {
		t.Fatalf("link fault = %+v, %v", f, err)
	}
	// Endpoints are canonicalized, so either argument order names the same
	// fault.
	if g, err := ParseFault("link:3,0-0,0", 2); err != nil || g != f {
		t.Errorf("reversed link fault = %+v, %v, want %+v", g, err, f)
	}
	// Malformed link: specs.
	for _, bad := range []string{"link:", "link:0,0", "link:0,0-", "link:-3,0",
		"link:0,0-0,0", "link:a,b-c,d", "link:0,0-3,0,1", "link:0-1"} {
		if _, err := ParseFault(bad, 2); err == nil {
			t.Errorf("malformed link spec %q accepted", bad)
		}
	}
	// Dimensionally valid but off-lattice or off-line: ParseFaultIn rejects.
	shape := geom.MustShape(4, 3)
	for _, bad := range []string{"link:0,0-4,0", "link:0,0-1,1", "link:0,0-0,3"} {
		if _, err := ParseFault(bad, shape.Dims()); err != nil {
			t.Fatalf("spec %q should be dimensionally parseable", bad)
		}
		if _, err := ParseFaultIn(bad, shape); err == nil {
			t.Errorf("off-lattice link fault %q accepted", bad)
		}
	}
}

func TestCheckFaultTopology(t *testing.T) {
	dims := 2
	parse := func(s string) fault.Fault {
		f, err := ParseFault(s, dims)
		if err != nil {
			t.Fatalf("ParseFault(%q): %v", s, err)
		}
		return f
	}
	tests := []struct {
		spec     string
		topology string
		wantErr  bool
	}{
		{spec: "rtc:1,1", topology: "mdx"},
		{spec: "rtc:1,1", topology: ""}, // empty string means mdx
		{spec: "xb:0:1,1", topology: "mdx"},
		{spec: "link:0,0-1,0", topology: "mdx", wantErr: true}, // no direct links
		{spec: "rtc:1,1", topology: "hyperx"},
		{spec: "link:0,0-1,0", topology: "hyperx"},
		{spec: "xb:0:1,1", topology: "hyperx", wantErr: true}, // no crossbars
		{spec: "rtc:1,1", topology: "fullmesh"},
		{spec: "link:0,0-1,0", topology: "fullmesh"},
		{spec: "xb:0:1,1", topology: "fullmesh", wantErr: true},
	}
	for _, tc := range tests {
		err := CheckFaultTopology(parse(tc.spec), tc.topology)
		if tc.wantErr && err == nil {
			t.Errorf("CheckFaultTopology(%s, %q) accepted", tc.spec, tc.topology)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("CheckFaultTopology(%s, %q): %v", tc.spec, tc.topology, err)
		}
	}
}

func TestParseWorkerID(t *testing.T) {
	good := map[string]string{
		"":          "w0", // default fleet member
		"  w3  ":    "w3",
		"node-07.a": "node-07.a",
		"W_1":       "W_1",
	}
	for in, want := range good {
		got, err := ParseWorkerID(in)
		if err != nil || got != want {
			t.Errorf("ParseWorkerID(%q) = (%q, %v), want %q", in, got, err, want)
		}
	}
	bad := []string{".", "..", "a/b", "w 1", "w\x00", strings.Repeat("x", 65)}
	for _, in := range bad {
		if got, err := ParseWorkerID(in); err == nil {
			t.Errorf("ParseWorkerID(%q) = %q, want error (ids become path components)", in, got)
		}
	}
}

func TestParseFailpoint(t *testing.T) {
	if h, c, err := ParseFailpoint(""); err != nil || h != "" || c != 0 {
		t.Errorf("empty failpoint = (%q, %d, %v), want disabled", h, c, err)
	}
	h, c, err := ParseFailpoint("00deadbeef001122@4096")
	if err != nil || h != "00deadbeef001122" || c != 4096 {
		t.Errorf("ParseFailpoint = (%q, %d, %v), want hash@4096", h, c, err)
	}
	if h, c, err = ParseFailpoint(" 00deadbeef001122@0 "); err != nil || c != 0 || h == "" {
		t.Errorf("cycle 0 (kill at first progress) rejected: (%q, %d, %v)", h, c, err)
	}
	bad := []string{
		"00deadbeef001122",       // no cycle
		"deadbeef@100",           // short hash
		"00DEADBEEF001122@100",   // uppercase hex
		"00deadbeef00112g@100",   // not hex
		"00deadbeef001122@-1",    // negative cycle
		"00deadbeef001122@ten",   // not a number
		"00deadbeef001122@1@2@3", // the last @ splits: "...22@1@2" is no hash
	}
	for _, in := range bad {
		if _, _, err := ParseFailpoint(in); err == nil {
			t.Errorf("ParseFailpoint(%q) accepted, want error", in)
		}
	}
}
