package core

import (
	"encoding/binary"
	"math/bits"
	"time"

	"rmfec/internal/gf256"
	"rmfec/internal/metrics"
	"rmfec/internal/packet"
)

// ReceiverStats counts the receiver's protocol activity.
type ReceiverStats struct {
	DataRx     int // data shards received (first copies)
	ParityRx   int // parity shards received (first copies)
	DupRx      int // duplicate shards
	Decodes    int // TGs that needed Reed-Solomon reconstruction
	NakTx      int // NAKs multicast
	NakSupp    int // NAK timers damped by another receiver's NAK
	PollRx     int // POLLs seen
	NcRx       int // NCREPAIR combos processed
	NcRepaired int // combos that recovered a missing data shard
	Reassembly int // 1 once the message was delivered

	// Group recovery latency: time from a group's first received shard to
	// its reconstruction. The paper leaves FEC's latency benefits to
	// future work; these counters quantify them on the live stack.
	LatencySum time.Duration // summed over recovered groups
	LatencyMax time.Duration
	Groups     int // groups recovered (the latency sample count)
}

// MeanLatency returns the average group recovery latency.
func (st ReceiverStats) MeanLatency() time.Duration {
	if st.Groups == 0 {
		return 0
	}
	return st.LatencySum / time.Duration(st.Groups)
}

// Receiver is the NP protocol receiver. It buffers the shards of each
// transmission group, answers sender POLLs with slotted/damped NAKs
// carrying its remaining deficit, reconstructs each group from any k
// shards, and delivers the reassembled message through the OnComplete
// callback.
//
// The receive path is allocation-free in the steady state: packets are
// decoded in place (packet.DecodeInto), shard payloads are copied into
// pooled buffers, and — in streaming mode, see OnGroup — each group's
// buffers and bookkeeping return to their free-lists as soon as the group
// is delivered, so an arbitrarily long transfer runs in memory
// proportional to the number of groups in flight.
type Receiver struct {
	env  Env
	cfg  Config
	code Codec

	groups   map[uint32]*rxGroup
	totalTG  int    // -1 until learned from a packet
	msgLen   uint64 // valid once a FIN arrived
	sawFin   bool
	decoded  int
	complete bool
	closed   bool

	zeroFill   bool       // codec rebuilds into zero-len pooled buffers (GF(2^8))
	shardPool  bufPool    // recycled shard buffers (ShardSize each)
	ctrlFrames bufPool    // recycled NAK wire frames
	freeGroups []*rxGroup // recycled group bookkeeping (streaming mode)
	doneBits   []uint64   // groups released after streaming delivery

	// Adaptive sessions: per-group (k, h) bounds from the ladder, and the
	// per-(k, h) codec cache. Outside adaptive mode maxK/maxH mirror the
	// static config.
	maxK, maxH int
	codecs     codecCache

	// OnComplete is invoked exactly once with the reassembled message.
	// Leaving it nil selects STREAMING mode: each group's buffers are
	// recycled right after its OnGroup delivery (set callbacks before the
	// first packet arrives), and completion is still observable through
	// Complete and the delivery trace/metrics.
	OnComplete func(msg []byte)
	// OnGroup, if set, is invoked for every group as it becomes decodable,
	// with the group index and its k data shards (valid until return).
	OnGroup func(g uint32, shards [][]byte)

	stats ReceiverStats
	m     receiverMetrics
}

type rxGroup struct {
	shards     [][]byte // len k+h; nil = not received
	k          int      // data shards; 0 while unknown (adaptive group seen only via FIN)
	h          int      // parity budget
	have       int      // shards present
	firstAt    time.Duration
	sawShard   bool
	done       bool
	nakCancel  func()
	nakArmed   bool
	heardNak   int // largest deficit heard from another receiver this round
	retryCount int

	// Codec identity from the group's v2 headers (0/0 = RS, incl. every
	// v1 group); codecSet marks it adopted from the first shard, after
	// which conflicting frames are ignored. code is non-nil only for
	// non-MDS codecs (rect), whose completion/deficit rule needs the
	// shard bitmap instead of the plain count.
	codecID  uint8
	codecArg uint8
	codecSet bool
	code     Codec

	// haveBits tracks present shards i < 64 (complete for any group with
	// k+h <= 64): the rect completion rule and the NC loss maps read it.
	haveBits uint64
}

// NewReceiver creates an NP receiver. cfg must agree with the sender's on
// Session, K, MaxParity and ShardSize.
func NewReceiver(env Env, cfg Config) (*Receiver, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := newCodec(cfg)
	if err != nil {
		return nil, err
	}
	// Only the GF(2^8) and rect codecs honour the zero-length-with-capacity
	// Reconstruct contract; GF(2^16) groups mark losses with nil and let
	// the codec allocate.
	zeroFill := codecZeroFill(code)
	r := &Receiver{
		env:        env,
		cfg:        cfg,
		code:       code,
		zeroFill:   zeroFill,
		groups:     make(map[uint32]*rxGroup),
		totalTG:    -1,
		maxK:       cfg.K,
		maxH:       cfg.MaxParity,
		shardPool:  bufPool{minCap: cfg.ShardSize},
		ctrlFrames: bufPool{minCap: packet.HeaderLen},
		m:          newReceiverMetrics(cfg.Metrics),
	}
	if cfg.AdaptiveFEC {
		r.maxK, r.maxH = cfg.Adapt.MaxKH()
		r.codecs = newCodecCache(cfg.ShardSize, cfg.Metrics)
	}
	return r, nil
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Complete reports whether the full message has been delivered.
func (r *Receiver) Complete() bool { return r.complete }

// Close stops the receiver and cancels pending NAK timers.
func (r *Receiver) Close() {
	r.closed = true
	for _, g := range r.groups {
		if g.nakCancel != nil {
			g.nakCancel()
		}
	}
}

// released reports whether a group was delivered and its state recycled
// (streaming mode). Such a group is done; only the bit remembers it.
func (r *Receiver) released(idx uint32) bool {
	w := int(idx >> 6)
	return w < len(r.doneBits) && r.doneBits[w]&(1<<(idx&63)) != 0
}

func (r *Receiver) setReleased(idx uint32) {
	w := int(idx >> 6)
	for len(r.doneBits) <= w {
		//rmlint:ignore hotpath-alloc bitset grows only until noteTotal pre-sizes it
		r.doneBits = append(r.doneBits, 0)
	}
	r.doneBits[w] |= 1 << (idx & 63)
}

// group returns the bookkeeping for TG idx, creating it with the given
// parameters when first seen. k = 0 means the parameters are unknown yet
// (an adaptive group announced only by a FIN): state is sized to the
// ladder's bounds and the true (k, h) is adopted from the first shard.
func (r *Receiver) group(idx uint32, k, h int) *rxGroup {
	g, ok := r.groups[idx]
	if !ok {
		nsh := k + h
		if k == 0 {
			nsh = r.maxK + r.maxH
		}
		if n := len(r.freeGroups); n > 0 {
			g = r.freeGroups[n-1]
			r.freeGroups[n-1] = nil
			r.freeGroups = r.freeGroups[:n-1]
			*g = rxGroup{shards: g.shards} // shards were nil'd at release
			if len(g.shards) != nsh {
				//rmlint:ignore hotpath-alloc re-size only when adjacent groups negotiated different (k,h)
				g.shards = make([][]byte, nsh)
			}
		} else {
			//rmlint:ignore hotpath-alloc one allocation per live group; groups recycle through freeGroups
			g = &rxGroup{shards: make([][]byte, nsh)}
		}
		g.k, g.h = k, h
		r.groups[idx] = g
	}
	return g
}

// releaseGroup recycles a delivered group's buffers and bookkeeping and
// marks the index done in the bitset, so later packets for it are ignored
// without resurrecting state.
func (r *Receiver) releaseGroup(idx uint32, g *rxGroup) {
	r.setReleased(idx)
	for i, s := range g.shards {
		if s != nil {
			r.shardPool.put(s)
			g.shards[i] = nil
		}
	}
	if g.nakCancel != nil {
		g.nakCancel()
		g.nakCancel = nil
	}
	delete(r.groups, idx)
	//rmlint:ignore hotpath-alloc free-list growth is amortized across the session
	r.freeGroups = append(r.freeGroups, g)
}

// HandlePacket feeds an incoming wire packet to the engine. The buffer is
// only read during the call; the engine keeps copies of what it retains,
// so transports may hand the same read buffer to every invocation.
//
//rmlint:hotpath
func (r *Receiver) HandlePacket(wire []byte) {
	if r.closed || r.complete {
		return
	}
	var pkt packet.Packet
	var err error
	if r.cfg.AdaptiveFEC {
		err = packet.DecodeInto(&pkt, wire)
	} else {
		// Non-adaptive receivers speak strict v1: v2 frames of an adaptive
		// session sharing the group are rejected with ErrBadVersion here —
		// cleanly ignored, never misparsed.
		err = packet.DecodeIntoV1(&pkt, wire)
	}
	if err != nil || pkt.Session != r.cfg.Session {
		return
	}
	switch pkt.Type {
	case packet.TypeData, packet.TypeParity:
		r.onShard(&pkt)
	case packet.TypePoll:
		r.onPoll(&pkt)
	case packet.TypeNak:
		r.onNak(&pkt)
	case packet.TypeNcRepair:
		r.onNcRepair(&pkt)
	case packet.TypeFin:
		r.onFin(&pkt)
	}
}

func (r *Receiver) noteTotal(total uint32) {
	if total > 0 && r.totalTG < 0 && int64(total) <= int64(r.cfg.MaxGroups) {
		r.totalTG = int(total)
		// Pre-size the release bitset so the steady state never grows it.
		if need := (r.totalTG + 63) / 64; len(r.doneBits) < need {
			//rmlint:ignore hotpath-alloc one-time pre-size when the total TG count is announced
			bits := make([]uint64, need)
			copy(bits, r.doneBits)
			r.doneBits = bits
		}
	}
}

// wireKH extracts and validates a TG-scoped packet's group parameters.
// Static sessions pin them to the config; adaptive sessions read them from
// the v2 header (a v1 frame carries no h, so the ladder bound is assumed)
// and bound them by the ladder so a hostile header cannot inflate state.
func (r *Receiver) wireKH(pkt *packet.Packet) (k, h int, ok bool) {
	if !r.cfg.AdaptiveFEC {
		if int(pkt.K) != r.cfg.K {
			return 0, 0, false // foreign or misconfigured sender
		}
		return r.cfg.K, r.cfg.MaxParity, true
	}
	k = int(pkt.K)
	h = r.maxH
	if pkt.Vers == packet.V2 {
		h = int(pkt.H)
	}
	if k < 1 || k > r.maxK || h < 0 || h > r.maxH {
		return 0, 0, false
	}
	return k, h, true
}

func (r *Receiver) onShard(pkt *packet.Packet) {
	k, h, ok := r.wireKH(pkt)
	if !ok {
		return
	}
	if int64(pkt.Group) >= int64(r.cfg.MaxGroups) {
		return // beyond any transfer this receiver would accept
	}
	r.noteTotal(pkt.Total)
	if r.released(pkt.Group) {
		return
	}
	g := r.group(pkt.Group, k, h)
	if g.done {
		return
	}
	if g.k == 0 {
		g.k, g.h = k, h // FIN-created group adopts the negotiated params
	} else if g.k != k {
		return // conflicting parameters for the same group
	}
	if !r.adoptCodec(g, pkt, k, h) {
		return
	}
	idx := int(pkt.Seq)
	if idx >= len(g.shards) || idx >= k+h || len(pkt.Payload) != r.cfg.ShardSize {
		return
	}
	if g.shards[idx] != nil {
		r.stats.DupRx++
		r.m.dupRx.Inc()
		return
	}
	// pkt.Payload aliases the transport's read buffer; keep a pooled copy.
	shard := r.shardPool.get(r.cfg.ShardSize)
	copy(shard, pkt.Payload)
	g.shards[idx] = shard
	g.have++
	if idx < 64 {
		g.haveBits |= 1 << uint(idx)
	}
	if !g.sawShard {
		g.sawShard = true
		g.firstAt = r.env.Now()
	}
	if pkt.Type == packet.TypeData {
		r.stats.DataRx++
		r.m.dataRx.Inc()
	} else {
		r.stats.ParityRx++
		r.m.parityRx.Inc()
	}
	if r.groupComplete(g) {
		r.finishGroup(pkt.Group, g)
	}
	r.maybeComplete()
}

// adoptCodec validates a TG-scoped frame's codec identity and fixes it on
// the group at first contact. Unknown codec ids, malformed (id, arg)
// pairs, and frames conflicting with the group's adopted codec are all
// rejected (return false) — a hostile or corrupt header must not flip a
// group's recovery rule mid-flight. v1 frames carry no codec bytes and
// decode as (0, 0) = RS, so static sessions take the first branch
// unchanged.
//
//rmlint:hotpath
func (r *Receiver) adoptCodec(g *rxGroup, pkt *packet.Packet, k, h int) bool {
	id, arg := pkt.Codec, pkt.CodecArg
	if g.codecSet {
		return g.codecID == id && g.codecArg == arg
	}
	switch id {
	case packet.CodecRS:
		if arg != 0 {
			return false
		}
	case packet.CodecRect:
		if int(arg) != h || k+h > 64 {
			return false
		}
		c, _ := r.codecKH(k, h, id, arg)
		if c == nil {
			return false
		}
		g.code = c
	default:
		return false
	}
	g.codecID, g.codecArg, g.codecSet = id, arg, true
	return true
}

// groupComplete is the codec-aware completion rule: MDS codes finish on
// any k shards; non-MDS codes (rect) finish when the shard bitmap shows
// no remaining per-class shortfall.
//
//rmlint:hotpath
func (r *Receiver) groupComplete(g *rxGroup) bool {
	if g.code != nil {
		return g.code.ShortfallBits(g.haveBits) == 0
	}
	return g.have >= g.k
}

// codecKH returns the codec (and its zero-fill contract) for a group's
// (k, h, codec id, codec arg): the static instance when everything
// matches the config, else a cached per-(rung, codec) instance. A nil
// codec means the combination is unserviceable.
func (r *Receiver) codecKH(k, h int, id, arg uint8) (Codec, bool) {
	if id == packet.CodecRS && arg == 0 && k == r.cfg.K && h == r.cfg.MaxParity {
		return r.code, r.zeroFill
	}
	c, err := r.codecs.get(k, h, id, arg)
	if err != nil {
		return nil, false
	}
	return c, codecZeroFill(c)
}

func (r *Receiver) finishGroup(idx uint32, g *rxGroup) {
	gk := g.k
	nsh := gk + g.h
	if nsh > len(g.shards) {
		nsh = len(g.shards)
	}
	needsDecode := false
	for i := 0; i < gk; i++ {
		if g.shards[i] == nil {
			needsDecode = true
			break
		}
	}
	if needsDecode {
		code, zeroFill := r.codecKH(gk, g.h, g.codecID, g.codecArg)
		if code == nil {
			return // unserviceable (k,h); the group stays incomplete
		}
		if zeroFill {
			// Hand the codec zero-length pooled buffers for the missing
			// data slots; Reconstruct rebuilds into them in place, so the
			// decode path reuses the same working set as plain reception.
			for i := 0; i < gk; i++ {
				if g.shards[i] == nil {
					g.shards[i] = r.shardPool.get(r.cfg.ShardSize)[:0]
				}
			}
		}
		if err := code.Reconstruct(g.shards[:nsh]); err != nil {
			// Cannot happen with have >= k; undo the fills and stay
			// incomplete.
			for i := 0; i < gk; i++ {
				if s := g.shards[i]; s != nil && len(s) == 0 {
					r.shardPool.put(s[:cap(s)])
					g.shards[i] = nil
				}
			}
			return
		}
		r.stats.Decodes++
		r.m.decodes.Inc()
		parities := 0
		for i := gk; i < nsh; i++ {
			if g.shards[i] != nil {
				parities++
			}
		}
		r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDecode, A: uint64(idx), B: uint64(parities)})
	}
	g.done = true
	r.decoded++
	r.m.groupsDone.Inc()
	if g.sawShard {
		lat := r.env.Now() - g.firstAt
		r.stats.LatencySum += lat
		if lat > r.stats.LatencyMax {
			r.stats.LatencyMax = lat
		}
		r.stats.Groups++
		r.m.recovery.Observe(lat.Seconds())
	}
	if g.nakCancel != nil {
		g.nakCancel()
		g.nakCancel = nil
		g.nakArmed = false
	}
	if r.OnGroup != nil {
		r.OnGroup(idx, g.shards[:gk])
	}
	if r.OnComplete == nil {
		// Streaming mode: the group's data left through OnGroup (or the
		// consumer opted out of data entirely); recycle everything now.
		r.releaseGroup(idx, g)
	}
}

// onPoll implements the paper's feedback rule: compute the deficit l and
// schedule NAK(i,l) in slot [(s-l)Ts, (s-l+1)Ts] — receivers missing more
// answer earlier — unless damped by an equal-or-larger NAK.
func (r *Receiver) onPoll(pkt *packet.Packet) {
	r.stats.PollRx++
	r.m.pollRx.Inc()
	if int64(pkt.Group) >= int64(r.cfg.MaxGroups) {
		return
	}
	r.noteTotal(pkt.Total)
	if r.released(pkt.Group) {
		return
	}
	k, h, ok := r.wireKH(pkt)
	if !ok {
		return
	}
	g := r.group(pkt.Group, k, h)
	if g.k == 0 {
		g.k, g.h = k, h
	}
	g.heardNak = 0 // new suppression round
	r.armNak(pkt.Group, g, int(pkt.Count))
}

// groupK returns the data-shard count NAK math uses for g: its negotiated
// k, or the ladder's largest k when the group was announced only by a FIN
// (so a fully-lost group is NAKed defensively; the sender clamps).
func (r *Receiver) groupK(g *rxGroup) int {
	if g.k > 0 {
		return g.k
	}
	return r.maxK
}

func (r *Receiver) deficit(g *rxGroup) int {
	if g.done {
		return 0
	}
	if g.code != nil {
		// Non-MDS (rect) groups: the deficit is the per-class shortfall,
		// not k - have — extra parities of an already-covered class do not
		// reduce what the group still needs.
		return g.code.ShortfallBits(g.haveBits)
	}
	l := r.groupK(g) - g.have
	if l < 0 {
		l = 0
	}
	return l
}

func (r *Receiver) armNak(idx uint32, g *rxGroup, roundSize int) {
	l := r.deficit(g)
	if l == 0 {
		return
	}
	slot := roundSize - l
	if slot < 0 {
		slot = 0
	}
	if slot > r.cfg.MaxNakSlots {
		slot = r.cfg.MaxNakSlots
	}
	delay := time.Duration(slot)*r.cfg.Ts +
		time.Duration(r.env.Rand().Int63n(int64(r.cfg.Ts)))
	if g.nakCancel != nil {
		g.nakCancel()
	}
	g.nakArmed = true
	//rmlint:ignore hotpath-alloc NAK timer closure: armed only after loss, never in the loss-free steady state
	g.nakCancel = r.env.After(delay, func() { r.fireNak(idx, g) })
}

// fireNak is the NAK timer body for group idx. A transport may run a timer
// whose cancel raced with its firing, so g can have been released and
// reused for another group since it was armed: only the group's current
// bookkeeping may act.
//
//rmlint:hotpath
func (r *Receiver) fireNak(idx uint32, g *rxGroup) {
	if r.closed || g.done || r.groups[idx] != g {
		return
	}
	g.nakArmed = false
	l := r.deficit(g)
	if l == 0 {
		return
	}
	if g.heardNak >= l {
		// Damped: someone already asked for at least as much. Re-check
		// later in case the repair round is lost.
		r.stats.NakSupp++
		r.m.nakSupp.Inc()
	} else {
		nak := packet.Packet{
			Type:    packet.TypeNak,
			Session: r.cfg.Session,
			Group:   idx,
			K:       uint16(r.groupK(g)),
			Count:   uint16(l),
		}
		var lossMap [packet.NcMaskLen]byte
		if r.cfg.NCRepair && g.k > 0 && g.k+g.h <= 64 {
			// NC opt-in: report WHICH data seqs are missing, not just how
			// many, so the sender can retransmit exact XOR combinations.
			binary.BigEndian.PutUint64(lossMap[:], (uint64(1)<<uint(g.k)-1)&^g.haveBits)
			nak.Payload = lossMap[:]
		}
		frame := r.ctrlFrames.get(nak.EncodedLen())
		if _, err := nak.MarshalTo(frame); err == nil {
			r.env.MulticastControl(frame) //nolint:errcheck // best-effort
		}
		r.ctrlFrames.put(frame)
		r.stats.NakTx++
		r.m.nakSent.Inc()
		r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceNakTx, A: uint64(idx), B: uint64(l)})
	}
	// Retry with linear backoff while the group stays incomplete.
	g.retryCount++
	backoff := r.cfg.RetryBase * time.Duration(min(g.retryCount, 8))
	g.heardNak = 0
	g.nakArmed = true
	//rmlint:ignore hotpath-alloc NAK retry closure: runs only while a group stays incomplete after loss
	g.nakCancel = r.env.After(backoff, func() { r.fireNak(idx, g) })
}

// onNcRepair applies one network-coded repair combo (wire v2 only): the
// payload is an 8-byte mask of data seqs followed by their XOR. A combo
// is useful exactly when this receiver misses ONE member: XORing out the
// held members leaves the missing shard. Combos whose members are all
// held are duplicates (the repair was for other receivers' losses);
// combos covering 2+ local losses are undecodable here and only counted
// — the next POLL's NAK re-reports the loss map and the sender re-plans.
func (r *Receiver) onNcRepair(pkt *packet.Packet) {
	k, h, ok := r.wireKH(pkt)
	if !ok || int64(pkt.Group) >= int64(r.cfg.MaxGroups) {
		return
	}
	r.noteTotal(pkt.Total)
	if r.released(pkt.Group) {
		return
	}
	if len(pkt.Payload) != packet.NcMaskLen+r.cfg.ShardSize || k > 63 {
		return
	}
	g := r.group(pkt.Group, k, h)
	if g.done {
		return
	}
	if g.k == 0 {
		g.k, g.h = k, h
	} else if g.k != k {
		return
	}
	if !r.adoptCodec(g, pkt, k, h) {
		return
	}
	mask := binary.BigEndian.Uint64(pkt.Payload) & (uint64(1)<<uint(k) - 1)
	if mask == 0 {
		return
	}
	r.stats.NcRx++
	missing, missIdx := 0, 0
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= uint64(1) << uint(i)
		if g.shards[i] == nil {
			missing++
			missIdx = i
		}
	}
	switch {
	case missing == 0:
		r.stats.DupRx++
		r.m.ncDup.Inc()
		return
	case missing > 1:
		r.m.ncUnusable.Inc()
		return
	}
	shard := r.shardPool.get(r.cfg.ShardSize)
	copy(shard, pkt.Payload[packet.NcMaskLen:])
	for m := mask &^ (uint64(1) << uint(missIdx)); m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= uint64(1) << uint(i)
		gf256.AddSlice(g.shards[i], shard)
	}
	g.shards[missIdx] = shard
	g.have++
	g.haveBits |= uint64(1) << uint(missIdx)
	if !g.sawShard {
		g.sawShard = true
		g.firstAt = r.env.Now()
	}
	r.stats.NcRepaired++
	r.m.ncRepair.Inc()
	if r.groupComplete(g) {
		r.finishGroup(pkt.Group, g)
	}
	r.maybeComplete()
}

// onNak handles another receiver's NAK for damping: hearing NAK(i,m) with
// m >= own deficit suppresses the own pending NAK for that round.
func (r *Receiver) onNak(pkt *packet.Packet) {
	g, ok := r.groups[pkt.Group]
	if !ok || g.done {
		return
	}
	if int(pkt.Count) > g.heardNak {
		g.heardNak = int(pkt.Count)
	}
}

func (r *Receiver) onFin(pkt *packet.Packet) {
	r.noteTotal(pkt.Total)
	if len(pkt.Payload) >= 8 {
		r.msgLen = binary.BigEndian.Uint64(pkt.Payload)
		r.sawFin = true
	}
	if r.totalTG < 0 {
		return
	}
	// The FIN doubles as a poll for every unfinished group, including
	// groups we never saw a single packet of. Adaptive sessions create
	// those with unknown parameters (k = 0): state is sized to the ladder
	// bounds until a shard announces the group's true (k, h).
	fk, fh := r.cfg.K, r.cfg.MaxParity
	if r.cfg.AdaptiveFEC {
		fk, fh = 0, 0
	}
	for i := 0; i < r.totalTG; i++ {
		if r.released(uint32(i)) {
			continue
		}
		g := r.group(uint32(i), fk, fh)
		if !g.done && !g.nakArmed {
			r.armNak(uint32(i), g, r.groupK(g))
		}
	}
	r.maybeComplete()
}

func (r *Receiver) maybeComplete() {
	if r.complete || !r.sawFin || r.totalTG < 0 || r.decoded < r.totalTG {
		return
	}
	if r.OnComplete == nil {
		// Streaming mode: every group already left through OnGroup and was
		// recycled; there is nothing to assemble.
		r.complete = true
		r.stats.Reassembly = 1
		r.m.deliveries.Inc()
		r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDeliver, A: uint64(r.totalTG), B: r.msgLen})
		r.Close()
		return
	}
	// Capacity hint only: adaptive groups may cut larger k than the config,
	// but msgLen comes off the wire (a FIN), so it is trusted only up to
	// the largest reassembly the ladder could produce.
	capHint := r.totalTG * r.cfg.K * r.cfg.ShardSize
	if most := r.totalTG * r.maxK * r.cfg.ShardSize; uint64(capHint) < r.msgLen && r.msgLen <= uint64(most) {
		capHint = int(r.msgLen)
	}
	//rmlint:ignore hotpath-alloc final reassembly runs once per session
	msg := make([]byte, 0, capHint)
	for i := 0; i < r.totalTG; i++ {
		g := r.groups[uint32(i)]
		for j := 0; j < g.k; j++ {
			//rmlint:ignore hotpath-alloc reassembly buffer is presized; runs once per session
			msg = append(msg, g.shards[j]...)
		}
	}
	if uint64(len(msg)) < r.msgLen {
		return // inconsistent sender; refuse to deliver short data
	}
	msg = msg[:r.msgLen]
	r.complete = true
	r.stats.Reassembly = 1
	r.m.deliveries.Inc()
	r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDeliver, A: uint64(r.totalTG), B: r.msgLen})
	r.Close()
	if r.OnComplete != nil {
		r.OnComplete(msg)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
