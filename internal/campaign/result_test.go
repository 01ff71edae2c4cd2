package campaign

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// TestDecodeResultRefusesV5 feeds the decoder a cell result stored under
// format version 5 (testdata/result_v5.bin: the DR1 cyclic-union cell as
// the drain rung finished it, with one swap and two drained packets). That
// layout carried a drain count between the swap and fallback counts, so
// reading it with this layout would report the drained packets as
// fallbacks.
func TestDecodeResultRefusesV5(t *testing.T) { checkResultRefused(t, 5) }

// TestDecodeResultRefusesV6 does the same for version 6
// (testdata/result_v6.bin: the same cell as the fallback that re-installed
// the current variant finished it, with no swap and one fallback). Its
// layout is this one, but the same spec now runs differently, since a
// fallback installs the attempt's chosen candidate; a stored v6 cell would
// splice the old run into a new campaign's artifact.
func TestDecodeResultRefusesV6(t *testing.T) { checkResultRefused(t, 6) }

// checkResultRefused: the decoder must refuse testdata/result_v<version>.bin
// by section name and version, which makes the store re-run the cell.
func checkResultRefused(t *testing.T, version int) {
	t.Helper()
	data, err := os.ReadFile(fmt.Sprintf("testdata/result_v%d.bin", version))
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeResult(data)
	if want := fmt.Sprintf("version %d", version); err == nil || !strings.Contains(err.Error(), `section "campaign.result"`) || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeResult(v%d) = %v, want a refusal naming the campaign.result section and %s", version, err, want)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.resultPath(0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.LoadResult(0); ok {
		t.Fatalf("the store loaded a v%d cell result instead of re-running the cell", version)
	}
}

// TestResultRoundTrip: the current layout decodes to what it encoded.
func TestResultRoundTrip(t *testing.T) {
	want := CellResult{
		Fault: fault.RouterFault(geom.Coord{2, 1}), Epoch: 8, Pattern: "pair:0,0>3,3",
		Offered: 4, Accepted: 4, Delivered: 4, Broadcasts: 1, BroadcastCopies: 15, BroadcastCopiesExpected: 15,
		Drained: true, EndCycle: 78,
		ReconfigEnabled: true, Reconfigured: 1, ReconfigFellBack: 2,
	}
	got, err := DecodeResult(EncodeResult(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}
