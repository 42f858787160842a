package codec

import (
	"github.com/dice-project/dice/internal/node"
)

// This file encodes the serializable record forms shared by every backend
// (package node's RouteRecord, SessionRecord, EventRecord, RouterStats and
// PeerRouteMap) into the codec's flat slabs, plus the sorted blob map that
// carries concolic input regions across process boundaries. Both backends' canonical
// checkpoint payloads are assembled almost entirely from these helpers; what
// differs per backend is only the configuration dialect wrapped around them.

// Route record flag bits (the four booleans packed into one byte).
const (
	routeHasMED uint8 = 1 << iota
	routeHasLocalPref
	routeEBGP
	routeLocal
)

// statsFieldCount pins the RouterStats field set the codec serializes.
// Changing RouterStats requires bumping the codec Version together with this
// constant — the decoder rejects any other count instead of misaligning.
// dice-vet's codecpin analyzer verifies the pin against the struct.
//
//dice:fieldpin node.RouterStats
const statsFieldCount = 17

// PutU32s writes a counted run of 32-bit values as uvarints.
func PutU32s(w *Writer, vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(uint64(v))
	}
}

// U32s reads a counted run of 32-bit values; zero count decodes to nil.
func U32s(r *Reader) []uint32 {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		v := r.Uvarint()
		if v > 0xFFFFFFFF {
			r.fail("u32 overflow %d", v)
			return nil
		}
		out[i] = uint32(v)
	}
	return out
}

// PutStrings writes a counted run of length-prefixed strings.
func PutStrings(w *Writer, ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Strings reads a counted run of strings; zero count decodes to nil.
func Strings(r *Reader) []string {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

func putRoute(w *Writer, rec *node.RouteRecord) {
	var flags uint8
	if rec.HasMED {
		flags |= routeHasMED
	}
	if rec.HasLocalPref {
		flags |= routeHasLocalPref
	}
	if rec.EBGP {
		flags |= routeEBGP
	}
	if rec.Local {
		flags |= routeLocal
	}
	w.Byte(flags)
	w.String(rec.Prefix)
	w.Byte(rec.Origin)
	PutU32s(w, rec.ASPath)
	PutU32s(w, rec.ASSet)
	w.Uvarint(uint64(rec.NextHop))
	if rec.HasMED {
		w.Uvarint(uint64(rec.MED))
	}
	if rec.HasLocalPref {
		w.Uvarint(uint64(rec.LocalPref))
	}
	PutU32s(w, rec.Communities)
	w.String(rec.Peer)
	w.Uvarint(uint64(rec.PeerAS))
	w.Uvarint(uint64(rec.PeerRouterID))
	w.Uvarint(rec.Age)
}

func route(r *Reader) node.RouteRecord {
	flags := r.Byte()
	rec := node.RouteRecord{
		HasMED:       flags&routeHasMED != 0,
		HasLocalPref: flags&routeHasLocalPref != 0,
		EBGP:         flags&routeEBGP != 0,
		Local:        flags&routeLocal != 0,
	}
	if flags&^(routeHasMED|routeHasLocalPref|routeEBGP|routeLocal) != 0 {
		r.fail("unknown route flags %#02x", flags)
		return rec
	}
	rec.Prefix = r.String()
	rec.Origin = r.Byte()
	rec.ASPath = U32s(r)
	rec.ASSet = U32s(r)
	rec.NextHop = uint32(r.Uvarint())
	if rec.HasMED {
		rec.MED = uint32(r.Uvarint())
	}
	if rec.HasLocalPref {
		rec.LocalPref = uint32(r.Uvarint())
	}
	rec.Communities = U32s(r)
	rec.Peer = r.String()
	rec.PeerAS = uint32(r.Uvarint())
	rec.PeerRouterID = uint32(r.Uvarint())
	rec.Age = r.Uvarint()
	return rec
}

// PutRouteRecords writes a length-prefixed flat slab of route records.
func PutRouteRecords(w *Writer, recs []node.RouteRecord) {
	mark := w.BeginSlab()
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		putRoute(w, &recs[i])
	}
	w.EndSlab(mark)
}

// RouteRecords reads a route slab; zero count decodes to nil.
func RouteRecords(r *Reader) []node.RouteRecord {
	end := r.BeginSlab()
	n := r.Count()
	var out []node.RouteRecord
	if r.Err() == nil && n > 0 {
		out = make([]node.RouteRecord, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			out = append(out, route(r))
		}
	}
	r.EndSlab(end)
	if r.Err() != nil {
		return nil
	}
	return out
}

// PutPeerRouteMap writes a per-peer route map in sorted peer order — the
// always-sorted iteration that makes the encoding canonical.
func PutPeerRouteMap(w *Writer, m node.PeerRouteMap) {
	peers := make([]string, 0, len(m))
	for p := range m {
		peers = append(peers, p)
	}
	sortStrings(peers)
	w.Uvarint(uint64(len(peers)))
	for _, p := range peers {
		w.String(p)
		PutRouteRecords(w, m[p])
	}
}

// PeerRouteMap reads a per-peer route map. The result is non-nil even when
// empty, matching how checkpoints build these maps.
func PeerRouteMap(r *Reader) node.PeerRouteMap {
	n := r.Count()
	out := make(node.PeerRouteMap, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		peer := r.String()
		routes := RouteRecords(r)
		if r.Err() == nil {
			out[peer] = routes
		}
	}
	return out
}

// PutBlobMap writes a map of named byte blobs (a concolic input's regions)
// in sorted key order, so equal maps always encode to identical bytes.
func PutBlobMap(w *Writer, m map[string][]byte) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.Blob(m[k])
	}
}

// BlobMap reads a map written by PutBlobMap; zero count decodes to nil. Keys
// must arrive strictly increasing, so a duplicate can never silently
// overwrite an entry and every accepted input is canonical.
func BlobMap(r *Reader) map[string][]byte {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make(map[string][]byte, n)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		if i > 0 && k <= prev {
			r.fail("blob map key %q not after %q", k, prev)
			return nil
		}
		out[k] = r.Blob()
		prev = k
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// PutSessionRecords writes a length-prefixed flat slab of session records.
func PutSessionRecords(w *Writer, recs []node.SessionRecord) {
	mark := w.BeginSlab()
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		s := &recs[i]
		w.String(s.Peer)
		w.Uvarint(uint64(s.PeerAS))
		w.Varint(int64(s.State))
		w.Uvarint(uint64(s.PeerRouterID))
		w.Varint(int64(s.DownCount))
		w.Varint(int64(s.NotificationsSent))
		w.Varint(int64(s.NotificationsReceived))
	}
	w.EndSlab(mark)
}

// SessionRecords reads a session slab; zero count decodes to nil.
func SessionRecords(r *Reader) []node.SessionRecord {
	end := r.BeginSlab()
	n := r.Count()
	var out []node.SessionRecord
	if r.Err() == nil && n > 0 {
		out = make([]node.SessionRecord, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			out = append(out, node.SessionRecord{
				Peer:                  r.String(),
				PeerAS:                uint32(r.Uvarint()),
				State:                 int(r.Varint()),
				PeerRouterID:          uint32(r.Uvarint()),
				DownCount:             int(r.Varint()),
				NotificationsSent:     int(r.Varint()),
				NotificationsReceived: int(r.Varint()),
			})
		}
	}
	r.EndSlab(end)
	if r.Err() != nil {
		return nil
	}
	return out
}

// PutEventRecords writes a length-prefixed flat slab of route-event records.
func PutEventRecords(w *Writer, recs []node.EventRecord) {
	mark := w.BeginSlab()
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		e := &recs[i]
		w.Varint(e.AtNanos)
		w.String(e.Prefix)
		w.String(e.OldVia)
		w.String(e.NewVia)
	}
	w.EndSlab(mark)
}

// EventRecords reads an event slab; zero count decodes to nil.
func EventRecords(r *Reader) []node.EventRecord {
	end := r.BeginSlab()
	n := r.Count()
	var out []node.EventRecord
	if r.Err() == nil && n > 0 {
		out = make([]node.EventRecord, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			out = append(out, node.EventRecord{
				AtNanos: r.Varint(),
				Prefix:  r.String(),
				OldVia:  r.String(),
				NewVia:  r.String(),
			})
		}
	}
	r.EndSlab(end)
	if r.Err() != nil {
		return nil
	}
	return out
}

// PutStats writes the router counter set in declaration order, prefixed with
// the pinned field count.
func PutStats(w *Writer, s node.RouterStats) {
	w.Uvarint(statsFieldCount)
	for _, v := range statsFields(&s) {
		w.Varint(int64(*v))
	}
}

// Stats reads the router counter set; a field count other than the pinned
// one is malformed.
func Stats(r *Reader) node.RouterStats {
	var s node.RouterStats
	if n := r.Uvarint(); r.Err() == nil && n != statsFieldCount {
		r.fail("stats field count %d, want %d", n, statsFieldCount)
		return s
	}
	for _, v := range statsFields(&s) {
		*v = int(r.Varint())
	}
	return s
}

// statsFields enumerates RouterStats fields in their one canonical order.
func statsFields(s *node.RouterStats) [statsFieldCount]*int {
	return [statsFieldCount]*int{
		&s.UpdatesReceived, &s.UpdatesSent, &s.WithdrawalsSent, &s.OpensSent,
		&s.KeepalivesSent, &s.NotificationsSent, &s.ParseErrors,
		&s.ImportRejected, &s.ExportRejected, &s.ASLoopsIgnored,
		&s.BestChanges, &s.SessionResets, &s.HandlerCrashes,
		&s.ExploredSymbolic, &s.InvariantFailures, &s.RoutesOriginated,
		&s.UpdatesHookDropped,
	}
}

// sortStrings is an allocation-free insertion sort; peer and region sets
// are tiny.
func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
