package core

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync/atomic"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// This file implements engine checkpoint/restore: the complete detector
// state of an optimized Engine — the sharded variable table (Write/Read
// Info records with their memoized locksets, positions, and
// happens-before caches), the per-thread lock records, the retained
// synchronization event list, the governor ladder position, and every
// Stats counter — serialized to a checksummed snapshot and rebuilt into
// a fresh engine. A restored engine is stats-identical to one that
// never stopped: replaying the suffix of a trace after restore yields
// the same verdicts, the same Figure 5 rule-fire counts, and the same
// Stats as the uninterrupted run (pinned by TestCheckpointEveryPrefix).
//
// A snapshot is one JSON header line identifying the format, then one
// length-prefixed binary body and its CRC-32 (IEEE), so a torn or
// bit-rotten snapshot is detected on load instead of silently restoring
// a corrupt detector:
//
//	{"format":"goldilocks-checkpoint","version":2}\n
//	uint64 LE body length | body | uint32 LE crc32(body)
//
// The body is encoded straight from the engine's state, in this order
// (integers are varints, signed ones zigzag; actions use the binary
// action codec of internal/event, event.AppendAction):
//
//	options     flag bits, SC3 segment cap, GC threshold and trim
//	            fraction, txn semantics, error policy, memory budget,
//	            shard count, broken rule
//	list        head seq, enqueued, collected, n, n actions head to tail
//	threads     n, then per thread (by tid): tid, n, (monitor, depth)*n
//	channels    n, then per channel (by addr): addr, cap, sends, recvs, closed
//	variables   n, then per variable (by obj, field): obj, field, flag
//	            bits, the write Info if any, n, n read Infos (by owner)
//	counters    every Stats counter, the governor rung, the degraded bit
//	telemetry   n, then n rule fires and n walk-rule hits (rules 1..n;
//	            n is 0 when the engine had no telemetry attached)
//
// An Info is its owner, flag bits, position (as an offset from the head
// seq), original seq, alock, action, sorted lockset and sorted
// happens-before cache. Every collection is written in a fixed order,
// so checkpointing a restored engine reproduces the snapshot byte for
// byte.
//
// Checkpoint requires quiescence: the caller must ensure no concurrent
// Step/Read/Write/Sync while the snapshot is taken (goldilocksd pauses
// the session's apply loop first). Restore builds a brand-new engine.

// CheckpointFormatName identifies the snapshot format.
const CheckpointFormatName = "goldilocks-checkpoint"

// CheckpointFormatVersion is the current snapshot version. Version 1
// (a JSON body) is not readable: restoring it is an error.
const CheckpointFormatVersion = 2

type ckptHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

var ckptHeaderLine = fmt.Sprintf(`{"format":%q,"version":%d}`+"\n", CheckpointFormatName, CheckpointFormatVersion)

// maxCkptShards bounds the shard count a snapshot may ask NewEngine to
// allocate; the engine rounds any configured count to a power of two.
const maxCkptShards = 1 << 16

// optionFlags lists the boolean options in their snapshot bit order.
func optionFlags(o *Options) []*bool {
	return []*bool{&o.SC1, &o.SC2, &o.SC3, &o.XactSC, &o.Memoize, &o.HBCache,
		&o.FastPath, &o.DisableAfterRace, &o.PartialEager}
}

// RestoreAttach carries the process-local attachments a restored engine
// cannot read from the snapshot: a telemetry bundle (checkpointed rule
// fires are added into it) and a fault injector. Both may be nil.
type RestoreAttach struct {
	Telemetry *obs.Telemetry
	Injector  *resilience.Injector
}

// Checkpoint serializes the engine's complete detector state to w in
// one write. The engine must be quiescent: no concurrent
// Step/Read/Write/Sync calls.
func (e *Engine) Checkpoint(w io.Writer) error {
	// Size the buffer for a typical snapshot (about ten bytes per list
	// cell and fifty per variable) so encoding rarely regrows it.
	hint := 1<<10 + 10*e.list.len() + 50*int(e.varsTracked.Load())
	enc := ckptEncoder{b: append(make([]byte, 0, hint), ckptHeaderLine...)}
	lenAt := len(enc.b)
	enc.b = append(enc.b, make([]byte, 8)...) // body length, patched below
	if err := enc.engine(e); err != nil {
		return err
	}
	body := enc.b[lenAt+8:]
	binary.LittleEndian.PutUint64(enc.b[lenAt:], uint64(len(body)))
	enc.b = binary.LittleEndian.AppendUint32(enc.b, crc32.ChecksumIEEE(body))
	_, err := w.Write(enc.b)
	return err
}

// ckptEncoder appends a snapshot body to b. The other fields are
// scratch space reused across variables and Infos.
type ckptEncoder struct {
	b       []byte
	elems   []Elem
	tids    []event.Tid
	readers []event.Tid
}

func (c *ckptEncoder) uvarint(u uint64) { c.b = binary.AppendUvarint(c.b, u) }
func (c *ckptEncoder) varint(v int64)   { c.b = binary.AppendVarint(c.b, v) }

// flags packs booleans into one word, the first in the lowest bit.
func (c *ckptEncoder) flags(flags ...bool) {
	var u uint64
	for i, f := range flags {
		if f {
			u |= 1 << i
		}
	}
	c.uvarint(u)
}

type ckptVarRef struct {
	obj   event.Addr
	field event.FieldID
	vs    *varState
}

func (c *ckptEncoder) engine(e *Engine) error {
	o := e.opts
	var flags []bool
	for _, f := range optionFlags(&o) {
		flags = append(flags, *f)
	}
	c.flags(flags...)
	c.varint(int64(o.SC3MaxSegment))
	c.varint(int64(o.GCThreshold))
	c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(o.GCTrimFraction))
	c.uvarint(uint64(o.TxnSemantics))
	c.uvarint(uint64(o.OnError))
	c.varint(int64(o.MemoryBudget))
	c.uvarint(uint64(len(e.varShards)))
	c.varint(int64(o.BrokenRule))

	// Event list: the retained filled cells are the contiguous seq range
	// from head up to the sentinel (trim only ever drops a prefix).
	e.list.mu.Lock()
	head := e.list.head
	e.list.mu.Unlock()
	tail := e.list.snapshotTail()
	c.uvarint(head.seq)
	c.uvarint(e.list.enqueued.Load())
	c.uvarint(e.list.collected.Load())
	c.uvarint(tail.seq - head.seq)
	for cl := head; cl != tail; cl = cl.next {
		if cl == nil || !cl.filled {
			return fmt.Errorf("core: checkpoint: event list broken at seq %d", tail.seq)
		}
		c.b = event.AppendAction(c.b, cl.action)
	}

	// Per-thread lock records, by tid.
	type threadRef struct {
		tid event.Tid
		tl  *threadLocks
	}
	var threads []threadRef
	e.locks.Range(func(k, v any) bool {
		threads = append(threads, threadRef{k.(event.Tid), v.(*threadLocks)})
		return true
	})
	slices.SortFunc(threads, func(a, b threadRef) int { return cmp.Compare(a.tid, b.tid) })
	c.uvarint(uint64(len(threads)))
	for _, t := range threads {
		t.tl.mu.Lock()
		c.varint(int64(t.tid))
		c.uvarint(uint64(len(t.tl.stack)))
		for _, a := range t.tl.stack {
			c.varint(int64(a))
			c.varint(int64(t.tl.held[a]))
		}
		t.tl.mu.Unlock()
	}

	// Channel conveyor state, by address.
	e.chanMu.Lock()
	chans := e.chans.Snapshot()
	e.chanMu.Unlock()
	addrs := make([]event.Addr, 0, len(chans))
	for a := range chans {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	c.uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		cs := chans[a]
		c.varint(int64(a))
		c.varint(int64(cs.Cap))
		c.uvarint(cs.Sends)
		c.uvarint(cs.Recvs)
		c.flags(cs.Closed)
	}

	// Variable table: every tracked state, including info-less ones
	// (quarantined or alloc-reset variables still occupy a table slot,
	// which VarsTracked counts), by (obj, field).
	var vars []ckptVarRef
	for i := range e.varShards {
		sh := &e.varShards[i]
		sh.mu.RLock()
		for obj, fields := range sh.vars {
			for field, vs := range fields {
				vars = append(vars, ckptVarRef{obj, field, vs})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(vars, func(a, b ckptVarRef) int {
		return cmp.Or(cmp.Compare(a.obj, b.obj), cmp.Compare(a.field, b.field))
	})
	c.uvarint(uint64(len(vars)))
	for _, v := range vars {
		if err := c.variable(v, head.seq); err != nil {
			return err
		}
	}

	// Counters: the summed stat stripes plus the off-path atomics.
	s := e.Stats()
	for _, u := range []uint64{
		s.AccessesChecked, s.PairChecks, s.SC1Hits, s.SC2Hits, s.SC3Hits,
		s.XactHits, s.HBCacheHits, s.FastPathHits, s.FullWalks, s.WalkCells,
		s.Races, s.DegradedChecks, s.VarsTracked, s.Collections,
		s.InfosAdvanced, s.PanicsRecovered, s.VarsQuarantined, s.Escalations,
		s.AggressiveGCs, s.CacheSheds, s.EagerSweeps,
	} {
		c.uvarint(u)
	}
	c.varint(int64(s.GovernorRung))
	c.flags(e.degraded.Load())

	// Telemetry: event-level rule fires and walk-effect hits, added into
	// the restoring telemetry so rule-fire counts stay
	// linearization-exact across a restart.
	if e.tel == nil {
		c.uvarint(0)
		return nil
	}
	c.uvarint(obs.NumRules)
	fires := e.tel.RuleFires()
	for _, f := range fires[1:] {
		c.uvarint(f)
	}
	for i := 1; i <= obs.NumRules; i++ {
		c.uvarint(e.tel.WalkRuleHits[i].Load())
	}
	return nil
}

// variable encodes one variable state under its own mutex.
func (c *ckptEncoder) variable(v ckptVarRef, head uint64) error {
	vs := v.vs
	vs.mu.Lock()
	defer vs.mu.Unlock()
	c.varint(int64(v.obj))
	c.varint(int64(v.field))
	c.flags(vs.write != nil, vs.readsAllXact, vs.disabled, vs.quarantined)
	if vs.write != nil {
		if err := c.info(vs.write, head); err != nil {
			return err
		}
	}
	c.readers = c.readers[:0]
	for t := range vs.reads {
		c.readers = append(c.readers, t)
	}
	slices.Sort(c.readers)
	c.uvarint(uint64(len(c.readers)))
	for _, t := range c.readers {
		if err := c.info(vs.reads[t], head); err != nil {
			return err
		}
	}
	return nil
}

func (c *ckptEncoder) info(in *info, head uint64) error {
	if in.pos.seq < head {
		return fmt.Errorf("core: checkpoint: info at seq %d before list head %d", in.pos.seq, head)
	}
	c.varint(int64(in.owner))
	c.flags(in.xact)
	c.uvarint(in.pos.seq - head)
	c.uvarint(in.origSeq)
	c.varint(int64(in.alock))
	c.b = event.AppendAction(c.b, in.action)

	c.elems = append(c.elems[:0], in.ls.small...)
	for el := range in.ls.m {
		c.elems = append(c.elems, el)
	}
	slices.SortFunc(c.elems, func(a, b Elem) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Tid, b.Tid),
			cmp.Compare(a.Obj, b.Obj), cmp.Compare(a.Field, b.Field))
	})
	c.uvarint(uint64(len(c.elems)))
	for _, el := range c.elems {
		c.uvarint(uint64(el.Kind))
		switch el.Kind {
		case ElemThread:
			c.varint(int64(el.Tid))
		case ElemVolatile, ElemVar:
			c.varint(int64(el.Obj))
			c.varint(int64(el.Field))
		case ElemTL:
		default:
			return fmt.Errorf("core: checkpoint: lockset element of kind %d", el.Kind)
		}
	}

	c.tids = c.tids[:0]
	for t := range in.hbAfter {
		c.tids = append(c.tids, t)
	}
	slices.Sort(c.tids)
	c.uvarint(uint64(len(c.tids)))
	for _, t := range c.tids {
		c.varint(int64(t))
	}
	return nil
}

// RestoreEngine rebuilds an engine from a checkpoint written by
// Checkpoint. The snapshot carries the engine's configuration; attach
// supplies the process-local telemetry and fault-injection attachments.
// A corrupt snapshot (torn write, checksum mismatch, unknown version)
// is an error — never a silently wrong detector, and never a panic or
// an allocation the snapshot's own bytes cannot back.
//
// RestoreEngine consumes exactly the checkpoint and nothing past it:
// callers that pass a *bufio.Reader can keep reading their own trailing
// records from the same stream (composed snapshots rely on this — e.g.
// a serializability checker appending its graph state after the engine
// snapshot).
func RestoreEngine(r io.Reader, attach RestoreAttach) (*Engine, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	line, err := readCkptLine(br)
	if err != nil {
		return nil, fmt.Errorf("core: empty checkpoint")
	}
	var hdr ckptHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != CheckpointFormatName {
		return nil, fmt.Errorf("core: not a %s snapshot", CheckpointFormatName)
	}
	if hdr.Version != CheckpointFormatVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (this build reads version %d)", hdr.Version, CheckpointFormatVersion)
	}
	var word [8]byte
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint body missing (torn write?)")
	}
	n := binary.LittleEndian.Uint64(word[:])
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("core: checkpoint body length %d out of range", n)
	}
	// Read the body in growing chunks rather than trusting the recorded
	// length with one allocation: a torn or hostile length costs at most
	// the bytes actually present.
	var body bytes.Buffer
	body.Grow(int(min(n, 1<<20)))
	if _, err := io.CopyN(&body, br, int64(n)); err != nil {
		return nil, fmt.Errorf("core: checkpoint body truncated at %d of %d bytes (torn write?)", body.Len(), n)
	}
	if _, err := io.ReadFull(br, word[:4]); err != nil {
		return nil, fmt.Errorf("core: checkpoint checksum missing (torn write?)")
	}
	if got, want := crc32.ChecksumIEEE(body.Bytes()), binary.LittleEndian.Uint32(word[:4]); got != want {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch (got %08x, recorded %08x)", got, want)
	}
	d := ckptDecoder{b: body.Bytes()}
	e := d.engine(attach)
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", d.err)
	}
	return e, nil
}

// readCkptLine reads one newline-terminated record without consuming
// anything beyond it.
func readCkptLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return line[:len(line)-1], nil
}

// ckptDecoder reads a snapshot body. The first failure sticks in err
// and every later read returns zero values, so decoding code checks err
// only before using a decoded value to index, size or link state.
type ckptDecoder struct {
	b   []byte
	err error
}

var errCkptShort = errors.New("body ends early")

func (d *ckptDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *ckptDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errCkptShort
		return 0
	}
	d.b = d.b[n:]
	return u
}

func (d *ckptDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errCkptShort
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int32 decodes a signed varint that must fit in 32 bits (thread ids,
// field ids, channel capacities).
func (d *ckptDecoder) int32() int32 {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("value %d out of 32-bit range", v)
		return 0
	}
	return int32(v)
}

// flags unpacks a word written by ckptEncoder.flags, refusing bits
// beyond the ones it has places for.
func (d *ckptDecoder) flags(flags ...*bool) {
	u := d.uvarint()
	if u>>len(flags) != 0 {
		d.fail("unknown flag bits %#x", u)
		return
	}
	for i, f := range flags {
		*f = u&(1<<i) != 0
	}
}

// flag unpacks a word holding one boolean.
func (d *ckptDecoder) flag() bool {
	var f bool
	d.flags(&f)
	return f
}

// count decodes a collection length. Every element takes at least
// minBytes of body, so a count the remaining bytes cannot hold is
// corruption, refused before it sizes an allocation.
func (d *ckptDecoder) count(minBytes int) int {
	u := d.uvarint()
	if u > uint64(len(d.b)/minBytes) {
		d.fail("count %d exceeds the %d bytes left", u, len(d.b))
		return 0
	}
	return int(u)
}

func (d *ckptDecoder) action() event.Action {
	if d.err != nil {
		return event.Action{}
	}
	a, n, err := event.DecodeAction(d.b)
	if err != nil {
		d.err = err
		return event.Action{}
	}
	d.b = d.b[n:]
	return a
}

func (d *ckptDecoder) engine(attach RestoreAttach) *Engine {
	opts := Options{Telemetry: attach.Telemetry, Injector: attach.Injector}
	d.flags(optionFlags(&opts)...)
	opts.SC3MaxSegment = int(d.varint())
	opts.GCThreshold = int(d.varint())
	if len(d.b) < 8 {
		d.fail("%v", errCkptShort)
		return nil
	}
	opts.GCTrimFraction = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	opts.TxnSemantics = event.TxnSemantics(d.uvarint())
	opts.OnError = resilience.ErrorPolicy(d.uvarint())
	opts.MemoryBudget = int(d.varint())
	shards := d.uvarint()
	opts.BrokenRule = int(d.varint())
	if shards == 0 || shards > maxCkptShards {
		d.fail("shard count %d out of range", shards)
	}
	if d.err != nil {
		return nil
	}
	opts.VarShards = int(shards)
	e := NewEngine(opts)

	// Event list: rebuild the contiguous cell chain; cells[i] is the
	// cell at seq HeadSeq+i, the last one the sentinel.
	headSeq := d.uvarint()
	e.list.enqueued.Store(d.uvarint())
	e.list.collected.Store(d.uvarint())
	cells := make([]*cell, d.count(6)+1) // an action takes at least 6 bytes
	cells[0] = &cell{seq: headSeq}
	for i := 1; i < len(cells); i++ {
		prev := cells[i-1]
		prev.action = d.action()
		prev.filled = true
		cells[i] = &cell{seq: prev.seq + 1}
		prev.next = cells[i]
	}
	if d.err != nil {
		return nil
	}
	e.list.head = cells[0]
	e.list.tail.Store(cells[len(cells)-1])
	e.list.length.Store(int64(len(cells) - 1))

	// Per-thread lock records, with published snapshots.
	for range d.count(2) {
		tid := event.Tid(d.int32())
		n := d.count(2)
		tl := &threadLocks{held: make(map[event.Addr]int, n), stack: make([]event.Addr, n)}
		for i := range tl.stack {
			tl.stack[i] = event.Addr(d.varint())
			tl.held[tl.stack[i]] = int(d.varint())
		}
		tl.mu.Lock()
		tl.publishLocked()
		tl.mu.Unlock()
		e.locks.Store(tid, tl)
	}

	// Channel conveyor state.
	if n := d.count(5); n > 0 {
		snap := make(map[event.Addr]event.ChanState, n)
		for range n {
			a := event.Addr(d.varint())
			snap[a] = event.ChanState{Cap: d.int32(), Sends: d.uvarint(), Recvs: d.uvarint(), Closed: d.flag()}
		}
		e.chans.Restore(snap)
	}

	// Variable table.
	for range d.count(4) {
		obj, field := event.Addr(d.varint()), event.FieldID(d.int32())
		vs := &varState{}
		var hasWrite bool
		d.flags(&hasWrite, &vs.readsAllXact, &vs.disabled, &vs.quarantined)
		if hasWrite {
			vs.write = d.info(cells)
		}
		if n := d.count(12); n > 0 { // an Info takes at least 12 bytes
			vs.reads = make(map[event.Tid]*info, n)
			for range n {
				if in := d.info(cells); in != nil {
					vs.reads[in.owner] = in
				}
			}
		}
		if d.err != nil {
			return nil
		}
		sh := &e.varShards[varHash(obj, field)&e.shardMask]
		fields, ok := sh.vars[obj]
		if !ok {
			fields = make(map[event.FieldID]*varState)
			sh.vars[obj] = fields
		}
		fields[field] = vs
	}

	// Counters: the hot-path sums land on stripe 0 (Stats sums stripes,
	// so the distribution is unobservable); the rest on their atomics.
	st := &e.stats[0]
	for _, c := range []*atomic.Uint64{
		&st.accessesChecked, &st.pairChecks, &st.sc1Hits, &st.sc2Hits, &st.sc3Hits,
		&st.xactHits, &st.hbCacheHits, &st.fastPathHits, &st.fullWalks, &st.walkCells,
		&st.races, &st.degradedChecks, &e.varsTracked, &e.collections,
		&e.infosAdvanced, &e.panicsRecovered, &e.varsQuarantined, &e.escalations,
		&e.aggressiveGCs, &e.cacheSheds, &e.eagerSweeps,
	} {
		c.Store(d.uvarint())
	}
	e.rung.Store(d.int32())
	e.degraded.Store(d.flag())

	n := d.count(2)
	if n > obs.NumRules {
		d.fail("%d rule counters, this build has %d rules", n, obs.NumRules)
	}
	if d.err != nil {
		return nil
	}
	tel := attach.Telemetry
	for i := 1; i <= n; i++ {
		if f := d.uvarint(); tel != nil {
			tel.Rules[i].Add(f)
		}
	}
	for i := 1; i <= n; i++ {
		if h := d.uvarint(); tel != nil {
			tel.WalkRuleHits[i].Add(h)
		}
	}
	return e
}

// info decodes one Info record and re-acquires its list reference.
// cells is the restored list indexed by offset from the head seq.
func (d *ckptDecoder) info(cells []*cell) *info {
	in := &info{owner: event.Tid(d.int32())}
	in.xact = d.flag()
	off := d.uvarint()
	in.origSeq = d.uvarint()
	in.alock = event.Addr(d.varint())
	in.action = d.action()
	if d.err == nil && off >= uint64(len(cells)) {
		d.fail("info at offset %d past the %d retained cells", off, len(cells)-1)
	}
	ls := &Lockset{}
	for range d.count(1) {
		el := Elem{Kind: ElemKind(d.uvarint())}
		switch el.Kind {
		case ElemThread:
			el.Tid = event.Tid(d.int32())
		case ElemVolatile, ElemVar:
			el.Obj, el.Field = event.Addr(d.varint()), event.FieldID(d.int32())
		case ElemTL:
		default:
			d.fail("lockset element of kind %d", el.Kind)
		}
		ls.Add(el)
	}
	in.ls = ls
	if n := d.count(1); n > 0 {
		in.hbAfter = make(map[event.Tid]struct{}, n)
		for range n {
			in.hbAfter[event.Tid(d.int32())] = struct{}{}
		}
	}
	if d.err != nil {
		return nil
	}
	in.pos = cells[off]
	in.pos.refs.Add(1)
	return in
}
