package campaign

import (
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
// fallbacks. The decoder must refuse it by section name and version, which
// makes the store re-run the cell.
func TestDecodeResultRefusesV5(t *testing.T) {
	data, err := os.ReadFile("testdata/result_v5.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeResult(data)
	if err == nil || !strings.Contains(err.Error(), `section "campaign.result"`) || !strings.Contains(err.Error(), "version 5") {
		t.Fatalf("DecodeResult(v5) = %v, want a refusal naming the campaign.result section and version 5", err)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.resultPath(0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.LoadResult(0); ok {
		t.Fatal("the store loaded a v5 cell result instead of re-running the cell")
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
