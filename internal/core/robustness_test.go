package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// mkEngines builds a sender/receiver pair on a throwaway network for
// adversarial-input tests.
func mkEngines(t *testing.T, seed int64) (*Sender, *Receiver, *simnet.Scheduler) {
	t.Helper()
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(seed)))
	cfg := baseConfig()
	sn := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	s, err := NewSender(sn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	r, err := NewReceiver(rn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, r, sched
}

func TestEnginesSurviveGarbage(t *testing.T) {
	s, r, _ := mkEngines(t, 1)
	s2 := func() *SenderN2 {
		sched := simnet.NewScheduler()
		net := simnet.NewNetwork(sched, rand.New(rand.NewSource(2)))
		n := net.AddNode(simnet.NodeConfig{})
		e, err := NewSenderN2(n, baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	r2 := func() *ReceiverN2 {
		sched := simnet.NewScheduler()
		net := simnet.NewNetwork(sched, rand.New(rand.NewSource(3)))
		n := net.AddNode(simnet.NodeConfig{})
		e, err := NewReceiverN2(n, baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	err := quick.Check(func(b []byte) bool {
		// None of the engines may panic on arbitrary bytes.
		s.HandlePacket(b)
		r.HandlePacket(b)
		s2.HandlePacket(b)
		r2.HandlePacket(b)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestEnginesSurviveAdversarialHeaders(t *testing.T) {
	s, r, _ := mkEngines(t, 4)
	cfg := baseConfig()
	adversarial := []packet.Packet{
		// Shard index far beyond the block.
		{Type: packet.TypeData, Session: cfg.Session, Group: 0, Seq: 65535,
			K: uint16(cfg.K), Payload: make([]byte, cfg.ShardSize)},
		// Wrong K claims.
		{Type: packet.TypeData, Session: cfg.Session, Group: 0, Seq: 0,
			K: 250, Payload: make([]byte, cfg.ShardSize)},
		// Payload size mismatch.
		{Type: packet.TypeData, Session: cfg.Session, Group: 0, Seq: 0,
			K: uint16(cfg.K), Payload: make([]byte, 3)},
		// NAK for a group that does not exist.
		{Type: packet.TypeNak, Session: cfg.Session, Group: 4_000_000_000, Count: 3},
		// NAK demanding zero or absurd repair counts.
		{Type: packet.TypeNak, Session: cfg.Session, Group: 0, Count: 0},
		{Type: packet.TypeNak, Session: cfg.Session, Group: 0, Count: 65535},
		// POLL with zero round size.
		{Type: packet.TypePoll, Session: cfg.Session, Group: 0, K: uint16(cfg.K), Count: 0},
		// FIN with truncated payload and absurd totals.
		{Type: packet.TypeFin, Session: cfg.Session, Total: 4_000_000_000, Payload: []byte{1}},
		// Foreign session: must be ignored entirely.
		{Type: packet.TypeData, Session: cfg.Session + 1, Group: 0, Seq: 0,
			K: uint16(cfg.K), Payload: make([]byte, cfg.ShardSize)},
	}
	for i, p := range adversarial {
		wire := p.MustEncode()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("packet %d (%s) panicked: %v", i, p.String(), rec)
				}
			}()
			s.HandlePacket(wire)
			r.HandlePacket(wire)
		}()
	}
	if r.Stats().DataRx != 0 {
		t.Error("receiver accepted an adversarial shard")
	}
}

func TestTransferCompletesUnderGarbageInjection(t *testing.T) {
	// A hostile node floods the group with garbage and half-valid packets
	// during a real transfer; the transfer must still complete intact.
	h := newHarness(t, harnessOpts{
		r:   5,
		cfg: baseConfig(),
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 5,
	})
	attacker := h.net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rng := rand.New(rand.NewSource(6))
	var flood func()
	n := 0
	flood = func() {
		if n >= 400 {
			return
		}
		n++
		junk := make([]byte, rng.Intn(80))
		rng.Read(junk)
		attacker.Multicast(junk) //nolint:errcheck
		// Half-valid: correct magic but hostile fields.
		p := packet.Packet{
			Type:    packet.Type(rng.Intn(6)%5 + 1),
			Session: 7, // the victims' session
			Group:   uint32(rng.Intn(10)),
			Seq:     uint16(rng.Intn(300)),
			K:       uint16(rng.Intn(300)),
			Count:   uint16(rng.Intn(300)),
			Payload: junk,
		}
		if wire, err := p.Encode(); err == nil {
			attacker.Multicast(wire) //nolint:errcheck
		}
		attacker.After(2*time.Millisecond, flood)
	}
	attacker.After(0, flood)

	msg := testMessage(6000, 7)
	h.run(t, msg)
	h.checkDelivered(t, msg)
}

// timerEnv is an Env that keeps every timer the engine arms and fires
// none on its own. Cancel marks a timer canceled but, like a transport
// whose timer had already begun to fire, cannot stop a test that runs
// the callback anyway. Control frames are decoded and kept.
type timerEnv struct {
	rng    *rand.Rand
	timers []*envTimer
	naks   []packet.Packet
}

type envTimer struct {
	fn       func()
	canceled bool
}

func (e *timerEnv) Now() time.Duration       { return 0 }
func (e *timerEnv) Rand() *rand.Rand         { return e.rng }
func (e *timerEnv) Multicast(b []byte) error { return nil }
func (e *timerEnv) MulticastControl(b []byte) error {
	var p packet.Packet
	if err := packet.DecodeInto(&p, b); err == nil && p.Type == packet.TypeNak {
		e.naks = append(e.naks, p)
	}
	return nil
}
func (e *timerEnv) After(d time.Duration, fn func()) (cancel func()) {
	tm := &envTimer{fn: fn}
	e.timers = append(e.timers, tm)
	return func() { tm.canceled = true }
}

// live returns the timers not canceled.
func (e *timerEnv) live() []*envTimer {
	var out []*envTimer
	for _, tm := range e.timers {
		if !tm.canceled {
			out = append(out, tm)
		}
	}
	return out
}

// TestStaleNakTimerOnRecycledGroup pins the streaming receiver against a
// NAK timer that fires after its group was released: the rxGroup is
// recycled for the next group index, and the old closure must neither
// NAK the finished group nor replace the new group's timer.
func TestStaleNakTimerOnRecycledGroup(t *testing.T) {
	const k = 4
	env := &timerEnv{rng: rand.New(rand.NewSource(1))}
	cfg := Config{Session: 9, K: k, MaxParity: 2, ShardSize: 16, Delta: time.Millisecond}
	r, err := NewReceiver(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.OnGroup = func(uint32, [][]byte) {} // streaming: OnComplete stays nil
	payload := make([]byte, cfg.ShardSize)
	feed := func(p packet.Packet) {
		p.Session, p.K, p.Total = cfg.Session, k, 8
		r.HandlePacket(p.MustEncode())
	}
	shards := func(group uint32, seqs ...uint16) {
		for _, s := range seqs {
			feed(packet.Packet{Type: packet.TypeData, Group: group, Seq: s, Payload: payload})
		}
	}

	// Group 0 misses one shard; its POLL arms a NAK timer.
	shards(0, 0, 1, 2)
	feed(packet.Packet{Type: packet.TypePoll, Group: 0, Count: k})
	if len(env.timers) != 1 {
		t.Fatalf("%d timers after the first POLL, want 1", len(env.timers))
	}
	old := env.timers[0]
	g0 := r.groups[0]

	// The last shard completes group 0, which is released (canceling the
	// timer) and recycled for group 1, whose POLL arms its own timer.
	shards(0, 3)
	if !r.released(0) || !old.canceled {
		t.Fatal("group 0 not released with its timer canceled")
	}
	shards(1, 0)
	if r.groups[1] != g0 {
		t.Fatal("group 1 did not reuse group 0's bookkeeping; the test needs it to")
	}
	feed(packet.Packet{Type: packet.TypePoll, Group: 1, Count: k})
	live := env.live()
	if len(live) != 1 {
		t.Fatalf("%d live timers after group 1's POLL, want 1", len(live))
	}
	fresh := live[0]

	// The canceled timer for group 0 fires anyway.
	old.fn()
	for _, n := range env.naks {
		if n.Group == 0 {
			t.Fatalf("stale timer sent NAK(group 0, count %d) for a delivered group", n.Count)
		}
	}
	if live := env.live(); len(live) != 1 || live[0] != fresh || !g0.nakArmed {
		t.Fatalf("stale timer disturbed group 1's NAK timer (%d live timers)", len(live))
	}

	// Group 1's own timer still NAKs its deficit.
	fresh.fn()
	if len(env.naks) != 1 || env.naks[0].Group != 1 || env.naks[0].Count != k-1 {
		t.Fatalf("group 1's timer sent %+v, want one NAK(group 1, count %d)", env.naks, k-1)
	}
}
