package netem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// TCPRunner runs the same Node implementations used by the virtual-time
// emulator over real TCP connections on the loopback interface. It exists for
// integration realism (the paper's prototype drives a real BIRD daemon over
// real sockets): the DiCE orchestrator itself always explores over the
// deterministic virtual-time emulator.
//
// Each node gets one listener; every adjacency is realized as a single TCP
// connection established by the lexicographically smaller node ID. Messages
// are framed as: 2-byte sender-name length, sender name, 4-byte payload
// length, payload. All callbacks for one node are serialized on a dedicated
// goroutine, matching the single-threaded semantics of the emulator.
type TCPRunner struct {
	mu        sync.Mutex
	nodes     map[NodeID]Node
	adjacency map[NodeID]map[NodeID]bool
	listeners map[NodeID]net.Listener
	conns     map[NodeID]map[NodeID]net.Conn
	inboxes   map[NodeID]chan tcpEvent
	timers    map[NodeID]map[string]*time.Timer
	started   bool
	start     time.Time
	wg        sync.WaitGroup
	closed    chan struct{}
}

type tcpEvent struct {
	kind    int // evDeliver, evTimer or evCall
	from    NodeID
	payload []byte
	timer   string
	call    func()
	done    chan struct{}
}

// NewTCPRunner returns an empty runner.
func NewTCPRunner() *TCPRunner {
	return &TCPRunner{
		nodes:     make(map[NodeID]Node),
		adjacency: make(map[NodeID]map[NodeID]bool),
		listeners: make(map[NodeID]net.Listener),
		conns:     make(map[NodeID]map[NodeID]net.Conn),
		inboxes:   make(map[NodeID]chan tcpEvent),
		timers:    make(map[NodeID]map[string]*time.Timer),
		closed:    make(chan struct{}),
	}
}

// AddNode registers a node. It must be called before Start.
func (r *TCPRunner) AddNode(node Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := node.ID()
	if _, dup := r.nodes[id]; dup {
		panic(fmt.Sprintf("netem: duplicate node %q", id))
	}
	r.nodes[id] = node
	r.adjacency[id] = make(map[NodeID]bool)
	r.conns[id] = make(map[NodeID]net.Conn)
	r.inboxes[id] = make(chan tcpEvent, 1024)
	r.timers[id] = make(map[string]*time.Timer)
}

// Connect records a bidirectional adjacency. It must be called before Start.
func (r *TCPRunner) Connect(a, b NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[a]; !ok {
		panic(fmt.Sprintf("netem: unknown node %q", a))
	}
	if _, ok := r.nodes[b]; !ok {
		panic(fmt.Sprintf("netem: unknown node %q", b))
	}
	r.adjacency[a][b] = true
	r.adjacency[b][a] = true
}

// Start opens listeners, dials adjacencies, starts per-node worker
// goroutines, and invokes Start on every node.
func (r *TCPRunner) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return errors.New("netem: TCPRunner already started")
	}
	r.started = true
	//dice:allow detsource TCPRunner is the real-network integration backend; wall-clock start anchors its virtual time
	r.start = time.Now()

	// Listeners first so that dialers have an address to reach.
	for id := range r.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netem: listen for %s: %w", id, err)
		}
		r.listeners[id] = ln
	}

	// Accept loops: the handshake line carries the dialer's node ID.
	for id, ln := range r.listeners {
		id, ln := id, ln
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				peer, err := readHandshake(conn)
				if err != nil {
					conn.Close()
					continue
				}
				r.mu.Lock()
				r.conns[id][peer] = conn
				r.mu.Unlock()
				r.wg.Add(1)
				go func() {
					defer r.wg.Done()
					r.readLoop(id, peer, conn)
				}()
			}
		}()
	}

	// Dial each adjacency once, from the smaller ID.
	ids := make([]NodeID, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, a := range ids {
		for b := range r.adjacency[a] {
			if a >= b {
				continue
			}
			addr := r.listeners[b].Addr().String()
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return fmt.Errorf("netem: dial %s->%s: %w", a, b, err)
			}
			if err := writeHandshake(conn, a); err != nil {
				return fmt.Errorf("netem: handshake %s->%s: %w", a, b, err)
			}
			r.conns[a][b] = conn
			a, b, conn := a, b, conn
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.readLoop(a, b, conn)
			}()
		}
	}

	// Per-node workers serialize callbacks.
	for id := range r.nodes {
		id := id
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.worker(id)
		}()
	}

	// Give accept loops a moment to register inbound connections before
	// Start handlers begin sending.
	//dice:allow detsource real-TCP startup polls actual socket readiness; nothing downstream replays this wait
	deadline := time.Now().Add(2 * time.Second)
	for {
		ready := true
		for _, a := range ids {
			for b := range r.adjacency[a] {
				if r.conns[a][b] == nil {
					ready = false
				}
			}
		}
		//dice:allow detsource real-TCP startup polls actual socket readiness; nothing downstream replays this wait
		if ready || time.Now().After(deadline) {
			break
		}
		r.mu.Unlock()
		//dice:allow detsource real-TCP startup polls actual socket readiness; nothing downstream replays this wait
		time.Sleep(5 * time.Millisecond)
		r.mu.Lock()
	}

	// Release the lock before running node Start handlers: they call back
	// into Send/SetTimer, which acquire it. Each handler runs on its node's
	// worker, serialized with the messages its peers have already sent.
	r.mu.Unlock()
	for _, id := range ids {
		node := r.nodes[id]
		env := &tcpEnv{runner: r, id: id}
		r.Inspect(id, func() { node.Start(env) })
	}
	r.mu.Lock()
	return nil
}

// Stop closes listeners and connections and waits for workers to exit.
func (r *TCPRunner) Stop() {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	select {
	case <-r.closed:
	default:
		close(r.closed)
	}
	for _, ln := range r.listeners {
		ln.Close()
	}
	for _, peers := range r.conns {
		for _, c := range peers {
			c.Close()
		}
	}
	for _, ts := range r.timers {
		for _, t := range ts {
			t.Stop()
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *TCPRunner) worker(id NodeID) {
	node := r.nodes[id]
	env := &tcpEnv{runner: r, id: id}
	for {
		select {
		case ev := <-r.inboxes[id]:
			switch ev.kind {
			case evDeliver:
				node.HandleMessage(env, ev.from, ev.payload)
			case evTimer:
				node.HandleTimer(env, ev.timer)
			case evCall:
				ev.call()
				close(ev.done)
			}
		case <-r.closed:
			return
		}
	}
}

// Inspect runs fn on the node's worker goroutine, serialized with its
// message and timer callbacks, and waits for it to return. Nodes are not
// internally synchronized (they assume the emulator's single-threaded
// semantics), so any read of node state while the runner is live must go
// through Inspect. It reports false if the runner is stopped before fn runs.
func (r *TCPRunner) Inspect(id NodeID, fn func()) bool {
	r.mu.Lock()
	inbox, ok := r.inboxes[id]
	r.mu.Unlock()
	if !ok {
		return false
	}
	done := make(chan struct{})
	select {
	case inbox <- tcpEvent{kind: evCall, call: fn, done: done}:
	case <-r.closed:
		return false
	}
	select {
	case <-done:
		return true
	case <-r.closed:
		// Stop raced completion: if fn did run, report that truthfully.
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

func (r *TCPRunner) readLoop(self, peer NodeID, conn net.Conn) {
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		select {
		case r.inboxes[self] <- tcpEvent{kind: evDeliver, from: peer, payload: payload}:
		case <-r.closed:
			return
		}
	}
}

func writeHandshake(conn net.Conn, id NodeID) error {
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(id)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write([]byte(id))
	return err
}

func readHandshake(conn net.Conn) (NodeID, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return "", err
	}
	name := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(conn, name); err != nil {
		return "", err
	}
	return NodeID(name), nil
}

func writeFrame(conn net.Conn, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 1<<20 {
		return nil, fmt.Errorf("netem: oversized frame %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// tcpEnv implements Env over the TCP runner.
type tcpEnv struct {
	runner *TCPRunner
	id     NodeID
	rng    *rand.Rand
}

//dice:allow detsource the TCP env's virtual time IS elapsed wall time; that is the point of the integration backend
func (e *tcpEnv) Now() time.Duration { return time.Since(e.runner.start) }
func (e *tcpEnv) Self() NodeID       { return e.id }

func (e *tcpEnv) Neighbors() []NodeID {
	e.runner.mu.Lock()
	defer e.runner.mu.Unlock()
	out := make([]NodeID, 0, len(e.runner.adjacency[e.id]))
	for peer := range e.runner.adjacency[e.id] {
		out = append(out, peer)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *tcpEnv) Send(to NodeID, payload []byte) {
	e.runner.mu.Lock()
	conn := e.runner.conns[e.id][to]
	adjacent := e.runner.adjacency[e.id][to]
	e.runner.mu.Unlock()
	if !adjacent {
		panic(fmt.Sprintf("netem: %s attempted to send to non-neighbor %s", e.id, to))
	}
	if conn == nil {
		return // connection not (yet) established; BGP retries via timers
	}
	_ = writeFrame(conn, payload)
}

func (e *tcpEnv) SetTimer(name string, d time.Duration) {
	e.runner.mu.Lock()
	defer e.runner.mu.Unlock()
	if old := e.runner.timers[e.id][name]; old != nil {
		old.Stop()
	}
	id := e.id
	//dice:allow detsource TCP-backend timers fire on the real clock by design; the simulated backend owns determinism
	e.runner.timers[e.id][name] = time.AfterFunc(d, func() {
		select {
		case e.runner.inboxes[id] <- tcpEvent{kind: evTimer, timer: name}:
		case <-e.runner.closed:
		}
	})
}

func (e *tcpEnv) CancelTimer(name string) {
	e.runner.mu.Lock()
	defer e.runner.mu.Unlock()
	if t := e.runner.timers[e.id][name]; t != nil {
		t.Stop()
		delete(e.runner.timers[e.id], name)
	}
}

func (e *tcpEnv) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(int64(fnvHash(string(e.id)))))
	}
	return e.rng
}

func (e *tcpEnv) Logf(format string, args ...interface{}) {}
