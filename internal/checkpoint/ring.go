package checkpoint

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/node"
)

// Epoch is one entry of the live runtime's rolling checkpoint history: a
// consistent snapshot decoded into a restore-ready Store, tagged with a
// monotonically increasing sequence number and measured both absolutely (its
// encoded footprint) and as a byte-level delta against the previous epoch.
//
// Delta accounting is content-addressed: each node checkpoint's identity is
// the SHA-256 of its canonical encoding, and a node whose hash matches the
// previous epoch's is unchanged — shipping the epoch as a delta would send
// one hash reference (HashSize bytes) in its place. The deterministic codec
// is what makes this sound: identical state encodes to identical bytes, so
// equal hashes mean equal state, with no caller-supplied fingerprints in the
// loop.
type Epoch struct {
	// Seq is the epoch number, 1-based and monotonically increasing across
	// the ring's lifetime (eviction never reuses a sequence number).
	Seq int
	// At is the virtual time the cut was taken at.
	At time.Duration
	// Taken is the wall-clock time the epoch entered the ring.
	Taken time.Time
	// Store holds the snapshot in decoded, restore-ready form; Store.Snapshot
	// recovers the raw cut. Nodes unchanged since earlier retained epochs
	// share their decoded images, states and canonical encodings with them
	// (structural sharing through the ring's content-addressed store).
	Store *Store
	// Bytes is the snapshot's total encoded footprint.
	Bytes int
	// DeltaBytes is what shipping this epoch as a delta against the previous
	// one would cost: the canonical encodings of the changed nodes, a
	// HashSize reference for each unchanged node, and the channel-state
	// envelope (which ships every epoch). The first epoch is a full shipment.
	DeltaBytes int
	// NodesChanged counts the nodes whose content hash differs from the
	// previous epoch (all of them for the first epoch).
	NodesChanged int
	// Fingerprint is a stable digest of the whole captured state, folded from
	// the per-node content hashes and the channel state. Two epochs with
	// equal fingerprints captured identical systems — in any process, on any
	// platform — and the live runtime's cross-epoch dedupe cache keys on it.
	Fingerprint uint64
	// Hashes maps each node to the content address of its checkpoint.
	Hashes map[string]Hash
}

// Ring is a bounded, epoch-tagged history of checkpoints: the live runtime
// pushes one consistent snapshot per checkpoint interval and the ring retains
// the most recent ones, evicting the oldest beyond its capacity. Pushing
// interns every node checkpoint into the ring's content-addressed store and
// builds the epoch's Store from the interned blobs (off the deployment's
// critical path — the snapshot is already immutable), so decoded state is
// shared across epochs and retention cost tracks how much actually changed.
//
// A Ring is safe for concurrent use.
type Ring struct {
	mu       sync.Mutex
	capacity int
	seq      int
	epochs   []*Epoch // oldest first
	cas      *CAS
	clock    func() time.Time
}

// NewRing returns an empty ring retaining at most capacity epochs (8 when
// capacity is not positive).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 8
	}
	return &Ring{capacity: capacity, cas: NewCAS(), clock: time.Now}
}

// SetClock injects the time source stamped into Epoch.Taken — the seam
// deterministic harnesses use so replayed pushes carry reproducible
// wall-clock tags. The default is the real clock.
func (r *Ring) SetClock(clock func() time.Time) {
	if clock != nil {
		r.mu.Lock()
		r.clock = clock
		r.mu.Unlock()
	}
}

// Push interns the snapshot's node checkpoints into the content-addressed
// store, measures the epoch absolutely and as a byte-level delta against the
// previous one, tags it with the next epoch number and appends it, evicting
// (and releasing) the oldest epoch if the ring is full. The snapshot is
// adopted: node checkpoints whose content is already retained are replaced
// with the retained decoded values, deduplicating across epochs.
func (r *Ring) Push(snap *Snapshot) (*Epoch, error) {
	names := snap.NodeNames()
	hashes := make(map[string]Hash, len(names))
	blobs := make(map[string]*casBlob, len(names))
	interned := make([]Hash, 0, len(names))
	fail := func(err error) (*Epoch, error) {
		for _, h := range interned {
			r.cas.release(h)
		}
		return nil, fmt.Errorf("checkpoint: ring push: %w", err)
	}
	for _, name := range names {
		h, b, err := r.cas.intern(snap.Nodes[name])
		if err != nil {
			return fail(err)
		}
		interned = append(interned, h)
		hashes[name] = h
		blobs[name] = b
		// Adopt the retained decoded checkpoint: identical content across
		// epochs collapses to one value.
		snap.Nodes[name] = b.cp
	}

	// Build the epoch's store from the interned blobs — no re-encode, no
	// re-decode, and unchanged nodes share every derived form with the
	// epochs that already hold them.
	stBackends := make(map[string]node.Backend, len(names))
	stImages := make(map[string]node.Image, len(names))
	stStates := make(map[string]node.State, len(names))
	stBaseline := make(map[string][]byte, len(names))
	for name, b := range blobs {
		stBackends[name] = b.be
		stImages[name] = b.image
		stStates[name] = b.state
		stBaseline[name] = b.data
	}
	store := newStoreShared(snap, stBackends, stImages, stStates, stBaseline, hashes)
	sizes, err := store.Sizes()
	if err != nil {
		return fail(err)
	}

	ep := &Epoch{
		At:          snap.At,
		Store:       store,
		Bytes:       sizes.TotalBytes,
		Hashes:      hashes,
		Fingerprint: combineHashes(snap, hashes),
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ep.Seq = r.seq
	ep.Taken = r.clock()

	// Byte-level delta vs the previous epoch: changed nodes ship their full
	// canonical encoding, unchanged nodes ship a HashSize content reference,
	// and the channel-state envelope (total minus the per-node parts) ships
	// every time.
	perNodeTotal := 0
	for _, n := range sizes.PerNodeBytes {
		perNodeTotal += n
	}
	envelope := sizes.TotalBytes - perNodeTotal
	var prev *Epoch
	if n := len(r.epochs); n > 0 {
		prev = r.epochs[n-1]
	}
	ep.DeltaBytes = envelope
	for name, bytes := range sizes.PerNodeBytes {
		changed := true
		if prev != nil {
			pfp, ok := prev.Hashes[name]
			changed = !ok || pfp != hashes[name]
		}
		if changed {
			ep.DeltaBytes += bytes
			ep.NodesChanged++
		} else {
			ep.DeltaBytes += HashSize
		}
	}

	r.epochs = append(r.epochs, ep)
	if len(r.epochs) > r.capacity {
		over := len(r.epochs) - r.capacity
		for i := 0; i < over; i++ {
			for _, h := range r.epochs[i].Hashes {
				r.cas.release(h)
			}
			r.epochs[i] = nil
		}
		r.epochs = append(r.epochs[:0], r.epochs[over:]...)
	}
	return ep, nil
}

// Latest returns the most recent epoch, or nil for an empty ring.
func (r *Ring) Latest() *Epoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.epochs) == 0 {
		return nil
	}
	return r.epochs[len(r.epochs)-1]
}

// Get returns the epoch with the given sequence number, or nil when it was
// never pushed or has been evicted.
func (r *Ring) Get(seq int) *Epoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ep := range r.epochs {
		if ep.Seq == seq {
			return ep
		}
	}
	return nil
}

// Len returns the number of retained epochs.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.epochs)
}

// Capacity returns the ring's retention bound.
func (r *Ring) Capacity() int { return r.capacity }

// Seqs returns the retained epoch numbers, oldest first.
func (r *Ring) Seqs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.epochs))
	for i, ep := range r.epochs {
		out[i] = ep.Seq
	}
	return out
}

// RetainedBytes returns the canonical-encoding bytes the ring actually holds
// across all retained epochs: each unique node content counted once, however
// many epochs reference it. For a quiet system this stays near one
// snapshot's footprint no matter the capacity.
func (r *Ring) RetainedBytes() int { return r.cas.Bytes() }

// UniqueBlobs returns the number of distinct node contents retained.
func (r *Ring) UniqueBlobs() int { return r.cas.Len() }

// SharedBytesSaved returns the bytes structural sharing saves across the
// retained epochs (see CAS.SharedBytesSaved).
func (r *Ring) SharedBytesSaved() int { return r.cas.SharedBytesSaved() }

// RefTotal returns the sum of blob reference counts across retained epochs.
func (r *Ring) RefTotal() int { return r.cas.RefTotal() }

// combineHashes folds the per-node content hashes (in sorted node order) and
// the channel state into one epoch digest. Unlike the hashes themselves this
// is a 64-bit convenience key (dedupe caches, campaign seeds), but it
// inherits their cross-process stability.
func combineHashes(snap *Snapshot, hashes map[string]Hash) uint64 {
	h := fnv.New64a()
	for _, name := range snap.NodeNames() {
		h.Write([]byte(name))
		fp := hashes[name]
		h.Write(fp[:])
	}
	for _, m := range snap.InFlight {
		h.Write([]byte(m.From))
		h.Write([]byte{0})
		h.Write([]byte(m.To))
		h.Write([]byte{0})
		h.Write(m.Payload)
	}
	return h.Sum64()
}
