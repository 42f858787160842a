package control

import (
	"math"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/topology"
)

// This file is the payload codec of wire version 4. Each struct has one
// field walk that both encodes (codec.Writer) and decodes (codec.Reader), so
// the two directions cannot drift apart. Lists are count-prefixed and an
// empty list decodes to nil; optional pointers carry a presence byte; the
// one map on the wire (concolic input regions) travels in sorted key order.
// Equal messages therefore encode to identical bytes.

// Field-count pins, one per struct the wire serializes: adding a field to
// any of them without walking it below fails dice-vet's codecpin check.
const (
	helloFields           = 3  //dice:fieldpin Hello
	welcomeFields         = 4  //dice:fieldpin Welcome
	baselineRequestFields = 1  //dice:fieldpin BaselineRequest
	baselineFields        = 5  //dice:fieldpin Baseline
	leaseRequestFields    = 1  //dice:fieldpin LeaseRequest
	leaseFields           = 5  //dice:fieldpin Lease
	noWorkFields          = 1  //dice:fieldpin NoWork
	heartbeatFields       = 1  //dice:fieldpin Heartbeat
	heartbeatAckFields    = 1  //dice:fieldpin HeartbeatAck
	shardResultFields     = 5  //dice:fieldpin ShardResult
	resultAckFields       = 1  //dice:fieldpin ResultAck
	unitResultFields      = 3  //dice:fieldpin UnitResult
	remoteResultFields    = 8  //dice:fieldpin RemoteResult
	remoteDetectionFields = 4  //dice:fieldpin RemoteDetection
	inputFields           = 1  //dice:fieldpin concolic.Input
	explorerStatsFields   = 11 //dice:fieldpin concolic.Stats
	envelopeFields        = 5  //dice:fieldpin federation.Envelope
	domainFields          = 2  //dice:fieldpin federation.Domain
	summaryFields         = 5  //dice:fieldpin checker.Summary
	digestFields          = 5  //dice:fieldpin checker.ViolationDigest
	edgeFields            = 3  //dice:fieldpin checker.ForwardingEdge
	prefixFields          = 2  //dice:fieldpin bgp.Prefix
	unitFields            = 6  //dice:fieldpin dice.Unit
	remoteSpecFields      = 12 //dice:fieldpin dice.RemoteSpec
	topologyFields        = 3  //dice:fieldpin topology.Topology
	topoNodeFields        = 6  //dice:fieldpin topology.Node
	topoLinkFields        = 6  //dice:fieldpin topology.Link
)

// message is one wire payload: its frame tag and its field walk.
type message interface {
	msgType() MsgType
	walk(f fields)
}

// newMessage returns a fresh payload value for each frame tag.
var newMessage = [msgTypeEnd]func() message{
	MsgHello:           func() message { return new(Hello) },
	MsgWelcome:         func() message { return new(Welcome) },
	MsgBaselineRequest: func() message { return new(BaselineRequest) },
	MsgBaseline:        func() message { return new(Baseline) },
	MsgLeaseRequest:    func() message { return new(LeaseRequest) },
	MsgLease:           func() message { return new(Lease) },
	MsgNoWork:          func() message { return new(NoWork) },
	MsgHeartbeat:       func() message { return new(Heartbeat) },
	MsgHeartbeatAck:    func() message { return new(HeartbeatAck) },
	MsgShardResult:     func() message { return new(ShardResult) },
	MsgResultAck:       func() message { return new(ResultAck) },
}

func (*Hello) msgType() MsgType           { return MsgHello }
func (*Welcome) msgType() MsgType         { return MsgWelcome }
func (*BaselineRequest) msgType() MsgType { return MsgBaselineRequest }
func (*Baseline) msgType() MsgType        { return MsgBaseline }
func (*LeaseRequest) msgType() MsgType    { return MsgLeaseRequest }
func (*Lease) msgType() MsgType           { return MsgLease }
func (*NoWork) msgType() MsgType          { return MsgNoWork }
func (*Heartbeat) msgType() MsgType       { return MsgHeartbeat }
func (*HeartbeatAck) msgType() MsgType    { return MsgHeartbeatAck }
func (*ShardResult) msgType() MsgType     { return MsgShardResult }
func (*ResultAck) msgType() MsgType       { return MsgResultAck }

// fields walks a value's fields in wire order: with w set it encodes each
// field it is handed, otherwise it decodes from r into it. Encoding only
// reads the value, so one message may be framed from several goroutines.
type fields struct {
	w *codec.Writer
	r *codec.Reader
}

func (f fields) str(v *string) {
	if f.w != nil {
		f.w.String(*v)
		return
	}
	*v = f.r.String()
}

// num walks any integer-kinded field as a zig-zag varint.
func num[T ~int | ~int64 | ~uint8 | ~uint32 | ~uint64](f fields, v *T) {
	if f.w != nil {
		f.w.Varint(int64(*v))
		return
	}
	*v = T(f.r.Varint())
}

func (f fields) bool(v *bool) {
	if f.w != nil {
		f.w.Bool(*v)
		return
	}
	*v = f.r.Bool()
}

func (f fields) blob(v *[]byte) {
	if f.w != nil {
		f.w.Blob(*v)
		return
	}
	*v = f.r.Blob()
}

// raw walks a fixed-size byte array (a content hash) without a length.
func (f fields) raw(v []byte) {
	for i := range v {
		if f.w != nil {
			f.w.Byte(v[i])
		} else {
			v[i] = f.r.Byte()
		}
	}
}

// list walks a count-prefixed list; an empty list decodes to nil. Decoding
// grows the list by append, so a hostile count cannot size an allocation
// ahead of the elements actually present.
func list[T any](f fields, xs *[]T, walk func(fields, *T)) {
	if f.w != nil {
		f.w.Uvarint(uint64(len(*xs)))
		for i := range *xs {
			walk(f, &(*xs)[i])
		}
		return
	}
	n := f.r.Count()
	for i := 0; i < n && f.r.Err() == nil; i++ {
		var x T
		walk(f, &x)
		*xs = append(*xs, x)
	}
}

// opt walks an optional pointer behind a presence byte.
func opt[T any](f fields, p **T, walk func(fields, *T)) {
	present := *p != nil
	f.bool(&present)
	if !present {
		return
	}
	if f.w == nil {
		*p = new(T)
	}
	walk(f, *p)
}

func (m *Hello) walk(f fields) {
	f.str(&m.Agent)
	list(f, &m.Backends, fields.str)
	num(f, &m.Workers)
}

func (m *Welcome) walk(f fields) {
	f.str(&m.AgentID)
	f.str(&m.Campaign)
	num(f, &m.HeartbeatEvery)
	num(f, &m.LeaseTTL)
}

func (m *BaselineRequest) walk(f fields) { f.str(&m.AgentID) }
func (m *LeaseRequest) walk(f fields)    { f.str(&m.AgentID) }
func (m *Heartbeat) walk(f fields)       { f.str(&m.AgentID) }
func (m *NoWork) walk(f fields)          { f.bool(&m.Done) }
func (m *HeartbeatAck) walk(f fields)    { f.bool(&m.Cancel) }
func (m *ResultAck) walk(f fields)       { f.bool(&m.Accepted) }

func (m *Baseline) walk(f fields) {
	f.str(&m.Campaign)
	walkTopology(f, &m.Topo)
	f.blob(&m.Snapshot)
	f.raw(m.SnapshotSHA256[:])
	walkRemoteSpec(f, &m.Spec)
}

func (m *Lease) walk(f fields) {
	num(f, &m.Shard)
	num(f, &m.Attempt)
	list(f, &m.UnitIndexes, num[int])
	list(f, &m.Units, walkUnit)
	if f.w != nil {
		checkpoint.PutSnapshotDelta(f.w, &m.Delta)
	} else {
		m.Delta = checkpoint.ReadSnapshotDelta(f.r)
	}
}

func (m *ShardResult) walk(f fields) {
	f.str(&m.AgentID)
	num(f, &m.Shard)
	num(f, &m.Attempt)
	list(f, &m.Units, walkUnitResult)
	list(f, &m.Envelopes, walkEnvelope)
}

func walkUnitResult(f fields, u *UnitResult) {
	num(f, &u.Index)
	opt(f, &u.Result, walkRemoteResult)
	f.str(&u.Err)
}

func walkRemoteResult(f fields, r *RemoteResult) {
	f.str(&r.Explorer)
	f.str(&r.FromPeer)
	f.str(&r.Domain)
	num(f, &r.InputsExplored)
	list(f, &r.Detections, walkRemoteDetection)
	num(f, &r.DisclosedBytes)
	num(f, &r.Duration)
	s := &r.ExplorerStats
	for _, v := range [explorerStatsFields]*int{
		&s.Executions, &s.UniquePaths, &s.UniqueInputs, &s.BranchesSeen,
		&s.CoverageSites, &s.SolverQueries, &s.SolverSat, &s.SolverUnsat,
		&s.SolverUnknown, &s.QueueOverflows, &s.Truncated,
	} {
		num(f, v)
	}
}

func walkRemoteDetection(f fields, d *RemoteDetection) {
	walkDigest(f, &d.Digest)
	num(f, &d.InputIndex)
	opt(f, &d.Input, walkInput)
	num(f, &d.Elapsed)
}

func walkInput(f fields, in *concolic.Input) {
	if f.w != nil {
		codec.PutBlobMap(f.w, in.Regions)
	} else {
		in.Regions = codec.BlobMap(f.r)
	}
}

func walkEnvelope(f fields, e *federation.Envelope) {
	num(f, &e.Seq)
	f.str(&e.From)
	f.str(&e.To)
	walkSummary(f, &e.Summary)
	num(f, &e.Bytes)
}

func walkSummary(f fields, s *checker.Summary) {
	f.str(&s.Domain)
	num(f, &s.Checked)
	f.bool(&s.OK)
	list(f, &s.Digests, walkDigest)
	list(f, &s.Edges, walkEdge)
}

func walkDigest(f fields, d *checker.ViolationDigest) {
	f.str(&d.Property)
	num(f, &d.Class)
	f.str(&d.Node)
	walkPrefix(f, &d.Prefix)
	f.bool(&d.HasPfx)
}

func walkEdge(f fields, e *checker.ForwardingEdge) {
	f.str(&e.Node)
	walkPrefix(f, &e.Prefix)
	f.str(&e.NextHop)
}

// walkPrefix walks a prefix; a mask length past 32 is malformed.
func walkPrefix(f fields, p *bgp.Prefix) {
	num(f, &p.Addr)
	num(f, &p.Len)
	if f.r != nil && p.Len > 32 {
		f.r.Fail("prefix length %d > 32", p.Len)
	}
}

func walkUnit(f fields, u *dice.Unit) {
	f.str(&u.Explorer)
	f.str(&u.FromPeer)
	num(f, &u.MaxInputs)
	num(f, &u.FuzzSeeds)
	num(f, &u.Seed)
	f.str(&u.Domain)
}

func walkRemoteSpec(f fields, s *dice.RemoteSpec) {
	num(f, &s.Seed)
	num(f, &s.FuzzSeeds)
	f.bool(&s.UseConcolic)
	num(f, &s.ShadowMaxEvents)
	num(f, &s.Workers)
	f.bool(&s.HasProperties)
	list(f, &s.Properties, fields.str)
	list(f, &s.Domains, walkDomain)
	num(f, &s.ClusterSeed)
	num(f, &s.ClusterMaxEvents)
	f.bool(&s.ClusterGaoRexford)
	num(f, &s.ClusterKeepalive)
}

func walkDomain(f fields, d *federation.Domain) {
	f.str(&d.Name)
	list(f, &d.Nodes, fields.str)
}

func walkTopology(f fields, t *topology.Topology) {
	f.str(&t.Name)
	list(f, &t.Nodes, walkTopoNode)
	list(f, &t.Links, walkTopoLink)
}

func walkTopoNode(f fields, n *topology.Node) {
	f.str(&n.Name)
	num(f, &n.AS)
	num(f, &n.RouterID)
	num(f, &n.Tier)
	list(f, &n.Prefixes, walkPrefix)
	f.str(&n.Impl)
}

func walkTopoLink(f fields, l *topology.Link) {
	f.str(&l.A)
	f.str(&l.B)
	num(f, &l.Rel)
	num(f, &l.Delay)
	num(f, &l.Jitter)
	loss := math.Float64bits(l.Loss)
	num(f, &loss)
	if f.r != nil {
		l.Loss = math.Float64frombits(loss)
	}
}
