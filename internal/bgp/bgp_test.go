package bgp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dice-project/dice/internal/concolic"
)

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"10.0.0.0/8", "10.0.0.0/8", false},
		{"192.168.1.0/24", "192.168.1.0/24", false},
		{"192.168.1.77/24", "192.168.1.0/24", false}, // host bits cleared
		{"0.0.0.0/0", "0.0.0.0/0", false},
		{"10.1.2.3/32", "10.1.2.3/32", false},
		{"10.0.0.0", "", true},
		{"10.0.0.0/33", "", true},
		{"10.0.0/8", "", true},
		{"300.0.0.0/8", "", true},
	}
	for _, tt := range tests {
		p, err := ParsePrefix(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParsePrefix(%q): expected error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePrefix(%q): %v", tt.in, err)
			continue
		}
		if p.String() != tt.want {
			t.Errorf("ParsePrefix(%q) = %s, want %s", tt.in, p, tt.want)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p8 := MustParsePrefix("10.0.0.0/8")
	p16 := MustParsePrefix("10.1.0.0/16")
	p24 := MustParsePrefix("10.1.2.0/24")
	other := MustParsePrefix("11.0.0.0/8")
	if !p8.Contains(p16) || !p8.Contains(p24) || !p16.Contains(p24) {
		t.Errorf("Contains should hold for more-specific prefixes")
	}
	if p16.Contains(p8) {
		t.Errorf("less-specific prefix must not be contained")
	}
	if p8.Contains(other) {
		t.Errorf("disjoint prefix must not be contained")
	}
	if !p8.Contains(p8) {
		t.Errorf("a prefix contains itself")
	}
}

func TestPrefixWireRoundTrip(t *testing.T) {
	prefixes := []Prefix{
		MustParsePrefix("0.0.0.0/0"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.1.0.0/16"),
		MustParsePrefix("10.1.2.0/24"),
		MustParsePrefix("10.1.2.3/32"),
		MustParsePrefix("172.16.0.0/12"),
	}
	var wire []byte
	for _, p := range prefixes {
		wire = AppendPrefix(wire, p)
	}
	got, err := DecodePrefixes(wire)
	if err != nil {
		t.Fatalf("DecodePrefixes: %v", err)
	}
	if len(got) != len(prefixes) {
		t.Fatalf("decoded %d prefixes, want %d", len(got), len(prefixes))
	}
	for i := range got {
		if got[i] != prefixes[i] {
			t.Errorf("prefix %d = %s, want %s", i, got[i], prefixes[i])
		}
	}
}

func TestDecodePrefixErrors(t *testing.T) {
	if _, err := DecodePrefixes([]byte{33, 1, 2, 3, 4, 5}); err == nil {
		t.Errorf("mask length 33 should fail")
	}
	if _, err := DecodePrefixes([]byte{24, 10}); err == nil {
		t.Errorf("truncated address should fail")
	}
}

func TestCommunity(t *testing.T) {
	c := NewCommunity(65001, 300)
	if c.String() != "65001:300" {
		t.Errorf("Community string = %s", c)
	}
	if uint32(c) != 65001<<16|300 {
		t.Errorf("Community value = %x", uint32(c))
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: RouterID(0x0a000001)}
	wire := Encode(o)
	msg, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got, ok := msg.(*Open)
	if !ok {
		t.Fatalf("decoded %T, want *Open", msg)
	}
	if *got != *o {
		t.Errorf("round trip = %+v, want %+v", got, o)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	wire := Encode(&Keepalive{})
	if len(wire) != HeaderLen {
		t.Errorf("KEEPALIVE length = %d, want %d", len(wire), HeaderLen)
	}
	msg, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if msg.Type() != MsgKeepalive {
		t.Errorf("type = %v", msg.Type())
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: ErrUpdateMessage, Subcode: ErrSubMalformedASPath, Data: []byte{1, 2}}
	msg, err := Decode(Encode(n))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := msg.(*Notification)
	if got.Code != n.Code || got.Subcode != n.Subcode || len(got.Data) != 2 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	// Bad marker.
	wire := Encode(&Keepalive{})
	wire[0] = 0
	if _, err := Decode(wire); err == nil {
		t.Errorf("bad marker should fail")
	}
	// Bad length.
	wire = Encode(&Keepalive{})
	wire[17] = 200
	if _, err := Decode(wire); err == nil {
		t.Errorf("bad length should fail")
	}
	// Bad type.
	wire = Encode(&Keepalive{})
	wire[18] = 77
	if _, err := Decode(wire); err == nil {
		t.Errorf("bad type should fail")
	}
	// Short input.
	if _, err := Decode([]byte{0xff, 0xff}); err == nil {
		t.Errorf("short input should fail")
	}
	var merr *MessageError
	_, err := Decode([]byte{0xff})
	if !errors.As(err, &merr) {
		t.Errorf("errors should be *MessageError, got %T", err)
	}
}

func TestOpenValidation(t *testing.T) {
	bad := &Open{Version: 3, AS: 65001, HoldTime: 90, RouterID: 1}
	if _, err := Decode(Encode(bad)); err == nil {
		t.Errorf("version 3 should be rejected")
	}
	bad = &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 0}
	if _, err := Decode(Encode(bad)); err == nil {
		t.Errorf("zero router id should be rejected")
	}
	bad = &Open{Version: 4, AS: 65001, HoldTime: 2, RouterID: 1}
	if _, err := Decode(Encode(bad)); err == nil {
		t.Errorf("hold time 2 should be rejected")
	}
}

func sampleAttrs() *PathAttributes {
	a := &PathAttributes{
		Origin:  OriginIGP,
		ASPath:  []ASN{65002, 65010},
		NextHop: 0x0a000002,
	}
	a.SetLocalPref(200)
	a.SetMED(50)
	a.AddCommunity(NewCommunity(65002, 100))
	a.AddCommunity(CommunityNoExport)
	return a
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []Prefix{MustParsePrefix("192.0.2.0/24")},
		Attrs:     sampleAttrs(),
		NLRI:      []Prefix{MustParsePrefix("10.1.0.0/16"), MustParsePrefix("10.2.0.0/16")},
	}
	msg, err := Decode(Encode(u))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got, ok := msg.(*Update)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("withdrawn = %v", got.Withdrawn)
	}
	if len(got.NLRI) != 2 || got.NLRI[0] != u.NLRI[0] || got.NLRI[1] != u.NLRI[1] {
		t.Errorf("nlri = %v", got.NLRI)
	}
	ga := got.Attrs
	if ga.Origin != OriginIGP || len(ga.ASPath) != 2 || ga.ASPath[0] != 65002 || ga.ASPath[1] != 65010 {
		t.Errorf("attrs = %+v", ga)
	}
	if ga.NextHop != 0x0a000002 || ga.EffectiveLocalPref() != 200 || ga.EffectiveMED() != 50 {
		t.Errorf("attrs values = %+v", ga)
	}
	if len(ga.Communities) != 2 || !ga.HasCommunity(CommunityNoExport) {
		t.Errorf("communities = %v", ga.Communities)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []Prefix{MustParsePrefix("10.0.0.0/8")}}
	msg, err := Decode(Encode(u))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := msg.(*Update)
	if len(got.NLRI) != 0 || got.Attrs != nil || len(got.Withdrawn) != 1 {
		t.Errorf("withdraw-only round trip = %+v", got)
	}
}

func TestUpdateValidationErrors(t *testing.T) {
	// Announcement without mandatory attributes.
	u := &Update{NLRI: []Prefix{MustParsePrefix("10.0.0.0/8")}}
	if _, err := Decode(Encode(u)); err == nil {
		t.Errorf("announcement without attributes should fail")
	}
	// Missing NEXT_HOP.
	body := []byte{0, 0} // no withdrawn
	attrs := appendAttr(nil, FlagTransitive, AttrOrigin, []byte{0})
	body = appendU16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = AppendPrefix(body, MustParsePrefix("10.0.0.0/8"))
	if _, err := DecodeUpdate(body); err == nil {
		t.Errorf("missing NEXT_HOP should fail")
	}
	// Invalid origin value.
	a := sampleAttrs()
	a.Origin = 9
	u = &Update{Attrs: a, NLRI: []Prefix{MustParsePrefix("10.0.0.0/8")}}
	if _, err := Decode(Encode(u)); err == nil {
		t.Errorf("origin 9 should fail")
	}
	// Truncated attribute block.
	body = []byte{0, 0, 0, 10, FlagTransitive, byte(AttrOrigin)}
	if _, err := DecodeUpdate(body); err == nil {
		t.Errorf("overrunning attribute length should fail")
	}
	// Malformed AS_PATH segment type.
	a = sampleAttrs()
	u = &Update{Attrs: a, NLRI: []Prefix{MustParsePrefix("10.0.0.0/8")}}
	wire := u.EncodeBody()
	// Find the AS_PATH segment type byte (first segment after the AS_PATH
	// attribute header) and corrupt it.
	corrupted := false
	for i := 0; i+3 < len(wire); i++ {
		if wire[i] == FlagTransitive && wire[i+1] == byte(AttrASPath) {
			wire[i+3] = 9 // segment type
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("could not locate AS_PATH header in encoding")
	}
	if _, err := DecodeUpdate(wire); err == nil {
		t.Errorf("bad AS_PATH segment type should fail")
	}
}

func TestPathAttributesHelpers(t *testing.T) {
	a := sampleAttrs()
	if a.PathLen() != 2 {
		t.Errorf("PathLen = %d", a.PathLen())
	}
	a.ASSet = []ASN{65099}
	if a.PathLen() != 3 {
		t.Errorf("PathLen with AS_SET = %d", a.PathLen())
	}
	if !a.HasASLoop(65010) || a.HasASLoop(65111) {
		t.Errorf("HasASLoop broken")
	}
	if a.OriginAS() != 65010 {
		t.Errorf("OriginAS = %v", a.OriginAS())
	}
	a.PrependAS(65001, 2)
	if len(a.ASPath) != 4 || a.ASPath[0] != 65001 || a.ASPath[1] != 65001 {
		t.Errorf("PrependAS = %v", a.ASPath)
	}
	clone := a.Clone()
	clone.SetLocalPref(7)
	clone.ASPath[0] = 1
	if a.EffectiveLocalPref() == 7 || a.ASPath[0] == 1 {
		t.Errorf("Clone is not deep")
	}
	var empty PathAttributes
	if empty.EffectiveLocalPref() != DefaultLocalPref {
		t.Errorf("default local pref = %d", empty.EffectiveLocalPref())
	}
	if empty.OriginAS() != 0 {
		t.Errorf("OriginAS of empty path = %v", empty.OriginAS())
	}
}

func TestSplitStream(t *testing.T) {
	a := Encode(&Keepalive{})
	b := Encode(&Open{Version: 4, AS: 1, HoldTime: 90, RouterID: 5})
	stream := append(append([]byte{}, a...), b...)
	stream = append(stream, 0xff, 0xff) // partial trailing data

	msgs, consumed, err := SplitStream(stream)
	if err != nil {
		t.Fatalf("SplitStream: %v", err)
	}
	if len(msgs) != 2 {
		t.Fatalf("got %d messages, want 2", len(msgs))
	}
	if consumed != len(a)+len(b) {
		t.Errorf("consumed = %d, want %d", consumed, len(a)+len(b))
	}
	if _, err := Decode(msgs[1]); err != nil {
		t.Errorf("second message does not decode: %v", err)
	}
}

func TestParseUpdateSymConsistency(t *testing.T) {
	u := &Update{Attrs: sampleAttrs(), NLRI: []Prefix{MustParsePrefix("10.1.0.0/16")}}
	body := u.EncodeBody()

	in := concolic.NewInput("update", body)
	m := concolic.NewMachine(in, concolic.MachineOptions{})
	got, err := ParseUpdateSym(m, "update", in.Region("update"))
	if err != nil {
		t.Fatalf("ParseUpdateSym: %v", err)
	}
	if len(got.NLRI) != 1 || got.NLRI[0] != u.NLRI[0] {
		t.Errorf("NLRI = %v", got.NLRI)
	}
	sym := got.Sym
	if !sym.HasLocalPref || sym.LocalPref.Uint() != 200 {
		t.Errorf("symbolic LOCAL_PREF = %v", sym.LocalPref)
	}
	if !sym.LocalPref.IsSymbolic() {
		t.Errorf("LOCAL_PREF should carry a symbolic expression under tracing")
	}
	if len(sym.NLRI) != 1 || sym.NLRI[0].Len.Uint() != 16 {
		t.Errorf("symbolic NLRI = %+v", sym.NLRI)
	}
	// The symbolic values must agree with the machine's concrete assignment.
	if sym.LocalPref.Sym.Eval(m.Assignment()) != 200 {
		t.Errorf("symbolic/concrete mismatch for LOCAL_PREF")
	}
	if len(m.Path()) == 0 {
		t.Errorf("symbolic parse should record branches")
	}
	// Parsing the same message without a machine must yield the same
	// concrete structure and record nothing.
	plain, err := DecodeUpdate(body)
	if err != nil {
		t.Fatalf("DecodeUpdate: %v", err)
	}
	if plain.Attrs.EffectiveLocalPref() != got.Attrs.EffectiveLocalPref() ||
		plain.Attrs.NextHop != got.Attrs.NextHop {
		t.Errorf("concrete and symbolic parses disagree")
	}
}

func TestUpdateStringer(t *testing.T) {
	u := &Update{Attrs: sampleAttrs(), NLRI: []Prefix{MustParsePrefix("10.1.0.0/16")}}
	if s := u.String(); s == "" {
		t.Error("empty String()")
	}
	if s := u.Attrs.String(); s == "" {
		t.Error("empty attrs String()")
	}
	if MsgUpdate.String() != "UPDATE" || MsgOpen.String() != "OPEN" {
		t.Error("message type names wrong")
	}
	if AttrLocalPref.String() != "LOCAL_PREF" {
		t.Error("attr type name wrong")
	}
	if OriginString(OriginEGP) != "EGP" {
		t.Error("origin name wrong")
	}
	if ErrUpdateMessage.String() == "" || (&MessageError{Code: ErrCease}).Error() == "" {
		t.Error("error strings empty")
	}
}

// Property: any programmatically built valid UPDATE survives an encode/decode
// round trip with its semantic fields intact.
func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(addr uint32, maskLen uint8, lp uint32, med uint32, as1, as2 uint16) bool {
		maskLen %= 33
		if as1 == 0 {
			as1 = 1
		}
		attrs := &PathAttributes{
			Origin:  OriginIGP,
			ASPath:  []ASN{ASN(as1), ASN(as2%60000 + 1)},
			NextHop: 0x0a000001,
		}
		attrs.SetLocalPref(lp)
		attrs.SetMED(med)
		p := Prefix{Addr: addr, Len: maskLen}.Canonical()
		u := &Update{Attrs: attrs, NLRI: []Prefix{p}}
		msg, err := Decode(Encode(u))
		if err != nil {
			return false
		}
		got := msg.(*Update)
		return len(got.NLRI) == 1 && got.NLRI[0] == p &&
			got.Attrs.EffectiveLocalPref() == lp &&
			got.Attrs.EffectiveMED() == med &&
			len(got.Attrs.ASPath) == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the symbolic parse never disagrees with the concrete parse on
// accept/reject, and on accepted messages the concolic invariant holds for
// the symbolic NLRI lengths.
func TestQuickSymParseAgreesWithConcrete(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		concrete, errC := DecodeUpdate(append([]byte(nil), raw...))
		in := concolic.NewInput("update", raw)
		m := concolic.NewMachine(in, concolic.MachineOptions{})
		sym, errS := ParseUpdateSym(m, "update", in.Region("update"))
		if (errC == nil) != (errS == nil) {
			return false
		}
		if errC != nil {
			return true
		}
		if len(concrete.NLRI) != len(sym.NLRI) {
			return false
		}
		for i, sp := range sym.Sym.NLRI {
			if sp.Len.Sym != nil && sp.Len.Sym.Eval(m.Assignment()) != sp.Len.Uint() {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStringFormsMatchFmt pins the allocation-light renderings of addresses
// and prefixes to the fmt forms they replaced, byte for byte.
func TestStringFormsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []uint32{0, 1, 0xFFFFFFFF, 0x0A000001, 0x7F000001, 0x00FF00FF}
	for i := 0; i < 2000; i++ {
		values = append(values, rng.Uint32())
	}
	for _, v := range values {
		wantIP := fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		if got := ipString(v); got != wantIP {
			t.Fatalf("ipString(%#x) = %q, want %q", v, got, wantIP)
		}
		for _, l := range []uint8{0, 1, 8, 16, 24, 32, uint8(rng.Intn(33)), 255} {
			p := Prefix{Addr: v, Len: l}
			want := fmt.Sprintf("%s/%d", wantIP, l)
			if got := p.String(); got != want {
				t.Fatalf("Prefix%+v.String() = %q, want %q", p, got, want)
			}
		}
	}
}

// TestSortPrefixesCanonical checks SortPrefixes and Compare against Less.
func TestSortPrefixesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := make([]Prefix, 500)
	for i := range ps {
		// A narrow address range forces equal addresses with different
		// lengths, the tie Less breaks on length.
		ps[i] = Prefix{Addr: uint32(rng.Intn(16)) << 28, Len: uint8(rng.Intn(33))}
	}
	SortPrefixes(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i].Less(ps[i-1]) {
			t.Fatalf("not sorted at %d: %v before %v", i, ps[i-1], ps[i])
		}
	}
	for i := 0; i < 1000; i++ {
		a, b := ps[rng.Intn(len(ps))], ps[rng.Intn(len(ps))]
		want := 0
		if a.Less(b) {
			want = -1
		} else if b.Less(a) {
			want = 1
		}
		if got := a.Compare(b); got != want {
			t.Fatalf("%v.Compare(%v) = %d, want %d", a, b, got, want)
		}
	}
}
