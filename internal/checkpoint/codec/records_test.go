package codec

import (
	"reflect"
	"testing"

	"github.com/dice-project/dice/internal/node"
)

func sampleRoutes() []node.RouteRecord {
	return []node.RouteRecord{
		{
			Prefix: "10.0.0.0/8", Origin: 1,
			ASPath: []uint32{65001, 65002}, ASSet: []uint32{65100},
			NextHop: 0x0A000001, HasMED: true, MED: 50,
			HasLocalPref: true, LocalPref: 120,
			Communities: []uint32{0xFDE80001},
			Peer:        "R2", PeerAS: 65002, PeerRouterID: 0x02020202,
			EBGP: true, Age: 7,
		},
		{Prefix: "192.168.0.0/16", Local: true, NextHop: 0},
	}
}

func TestRouteRecordsRoundTrip(t *testing.T) {
	recs := sampleRoutes()
	w := NewWriter()
	PutRouteRecords(w, recs)
	r := NewReader(w.Bytes())
	got := RouteRecords(r)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("route records round trip:\n got %+v\nwant %+v", got, recs)
	}

	// Empty slab decodes to nil.
	w2 := NewWriter()
	PutRouteRecords(w2, nil)
	r2 := NewReader(w2.Bytes())
	if got := RouteRecords(r2); got != nil {
		t.Fatalf("empty route slab decoded to %v", got)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// An unknown flag bit is malformed, not silently dropped.
	bad := append([]byte(nil), w.Bytes()...)
	bad[5] |= 0x80 // first record's flag byte: slab prefix (4) + count (1)
	rb := NewReader(bad)
	RouteRecords(rb)
	if rb.Err() == nil {
		t.Fatal("unknown route flag accepted")
	}
}

func TestPeerRouteMapCanonicalOrder(t *testing.T) {
	m := node.PeerRouteMap{
		"R9": sampleRoutes()[:1],
		"R1": sampleRoutes()[1:],
		"R5": nil,
	}
	w1 := NewWriter()
	PutPeerRouteMap(w1, m)

	// Re-encoding a decoded copy must be byte-identical regardless of map
	// iteration order — that is the canonical-order guarantee.
	r := NewReader(w1.Bytes())
	got := PeerRouteMap(r)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != len(m) {
		t.Fatalf("decoded %d peers, want %d", len(got), len(m))
	}
	w2 := NewWriter()
	PutPeerRouteMap(w2, got)
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Fatal("re-encoded peer route map differs from original encoding")
	}
}

func TestSessionAndEventRecordsRoundTrip(t *testing.T) {
	sessions := []node.SessionRecord{
		{Peer: "R2", PeerAS: 65002, State: 5, PeerRouterID: 7, DownCount: 1,
			NotificationsSent: 2, NotificationsReceived: 3},
		{Peer: "R3", State: -1},
	}
	events := []node.EventRecord{
		{AtNanos: 1_000_000, Prefix: "10.0.0.0/8", OldVia: "", NewVia: "R2"},
		{AtNanos: -5, Prefix: "192.168.0.0/16", OldVia: "R2", NewVia: ""},
	}
	w := NewWriter()
	PutSessionRecords(w, sessions)
	PutEventRecords(w, events)
	PutSessionRecords(w, nil)
	PutEventRecords(w, nil)

	r := NewReader(w.Bytes())
	if got := SessionRecords(r); !reflect.DeepEqual(got, sessions) {
		t.Fatalf("sessions round trip: %+v", got)
	}
	if got := EventRecords(r); !reflect.DeepEqual(got, events) {
		t.Fatalf("events round trip: %+v", got)
	}
	if got := SessionRecords(r); got != nil {
		t.Fatalf("empty session slab decoded to %v", got)
	}
	if got := EventRecords(r); got != nil {
		t.Fatalf("empty event slab decoded to %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestStatsRoundTripAndFieldCountPin(t *testing.T) {
	s := node.RouterStats{
		UpdatesReceived: 1, UpdatesSent: 2, WithdrawalsSent: 3, OpensSent: 4,
		KeepalivesSent: 5, NotificationsSent: 6, ParseErrors: 7,
		ImportRejected: 8, ExportRejected: 9, ASLoopsIgnored: 10,
		BestChanges: 11, SessionResets: 12, HandlerCrashes: 13,
		ExploredSymbolic: 14, InvariantFailures: 15, RoutesOriginated: 16,
		UpdatesHookDropped: 17,
	}
	w := NewWriter()
	PutStats(w, s)
	r := NewReader(w.Bytes())
	if got := Stats(r); got != s {
		t.Fatalf("stats round trip: %+v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The field count pins the serialized RouterStats shape: if the struct
	// grows a field without a codec Version bump, this count catches it.
	if n := reflect.TypeOf(node.RouterStats{}).NumField(); n != statsFieldCount {
		t.Fatalf("RouterStats has %d fields, codec pins %d — bump codec Version and statsFieldCount together", n, statsFieldCount)
	}

	// A stream with the wrong field count is malformed.
	wb := NewWriter()
	wb.Uvarint(statsFieldCount - 1)
	rb := NewReader(wb.Bytes())
	Stats(rb)
	if rb.Err() == nil {
		t.Fatal("wrong stats field count accepted")
	}
}

func TestU32sAndStringsRoundTrip(t *testing.T) {
	w := NewWriter()
	PutU32s(w, []uint32{0, 1, 0xFFFFFFFF})
	PutU32s(w, nil)
	PutStrings(w, []string{"", "a", "R12"})
	PutStrings(w, nil)

	r := NewReader(w.Bytes())
	if got := U32s(r); !reflect.DeepEqual(got, []uint32{0, 1, 0xFFFFFFFF}) {
		t.Fatalf("U32s = %v", got)
	}
	if got := U32s(r); got != nil {
		t.Fatalf("empty U32s = %v", got)
	}
	if got := Strings(r); !reflect.DeepEqual(got, []string{"", "a", "R12"}) {
		t.Fatalf("Strings = %v", got)
	}
	if got := Strings(r); got != nil {
		t.Fatalf("empty Strings = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A value past 32 bits is malformed for U32s.
	wb := NewWriter()
	wb.Uvarint(1)
	wb.Uvarint(1 << 33)
	rb := NewReader(wb.Bytes())
	U32s(rb)
	if rb.Err() == nil {
		t.Fatal("u32 overflow accepted")
	}
}

func TestSortStrings(t *testing.T) {
	ss := []string{"R9", "R1", "R10", "R1", ""}
	sortStrings(ss)
	want := []string{"", "R1", "R1", "R10", "R9"}
	if !reflect.DeepEqual(ss, want) {
		t.Fatalf("sortStrings = %v, want %v", ss, want)
	}
}

// TestBlobMapCanonical: a blob map encodes in sorted key order whatever its
// insertion order, round-trips, decodes empty to nil, and rejects keys that
// arrive out of order or duplicated.
func TestBlobMapCanonical(t *testing.T) {
	a := map[string][]byte{"tcp": {1, 2}, "bgp": {3}, "attrs": nil}
	b := map[string][]byte{"attrs": nil}
	b["bgp"] = []byte{3}
	b["tcp"] = []byte{1, 2}
	wa, wb := NewWriter(), NewWriter()
	PutBlobMap(wa, a)
	PutBlobMap(wb, b)
	if !reflect.DeepEqual(wa.Bytes(), wb.Bytes()) {
		t.Fatalf("equal maps encoded differently:\n%x\n%x", wa.Bytes(), wb.Bytes())
	}
	r := NewReader(wa.Bytes())
	if got := BlobMap(r); !reflect.DeepEqual(got, a) {
		t.Fatalf("blob map round trip: got %v want %v", got, a)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	we := NewWriter()
	PutBlobMap(we, map[string][]byte{})
	if got := BlobMap(NewReader(we.Bytes())); got != nil {
		t.Fatalf("empty blob map decoded to %v", got)
	}

	for name, keys := range map[string][]string{"unsorted": {"b", "a"}, "duplicate": {"a", "a"}} {
		w := NewWriter()
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
			w.Blob([]byte{1})
		}
		r := NewReader(w.Bytes())
		if got := BlobMap(r); got != nil || r.Err() == nil {
			t.Errorf("%s keys accepted: %v", name, got)
		}
	}
}
