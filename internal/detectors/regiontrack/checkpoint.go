package regiontrack

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
)

// Checker checkpoint/restore: the embedded race engine snapshots
// through core.Engine.Checkpoint (so the race side round-trips with
// the same guarantees TestCheckpointEveryPrefix pins), and the region
// graph — including regions still open mid-flight at the cut — is
// serialized as one CRC-checked JSON line after it. A restored checker
// stepped over a trace suffix yields the same races, the same regions,
// the same edges, and the same verdict as an uninterrupted run.
//
//	{"format":"goldilocks-regiontrack","version":1}
//	{"format":"goldilocks-checkpoint","version":3}   \  engine
//	length | binary body | crc32                     /  snapshot
//	{"graph":{...},"crc":"..."}

// CheckpointFormatName identifies the checker snapshot format.
const CheckpointFormatName = "goldilocks-regiontrack"

// CheckpointFormatVersion is the current snapshot version.
const CheckpointFormatVersion = 1

type ckptHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type ckptGraphBody struct {
	Graph json.RawMessage `json:"graph"`
	CRC   string          `json:"crc"`
}

type ckptThreadRegion struct {
	Thread event.Tid `json:"t"`
	Region regionID  `json:"r"`
}

type ckptThreadInt struct {
	Thread event.Tid `json:"t"`
	N      int       `json:"n"`
}

type ckptThreadRegions struct {
	Thread  event.Tid  `json:"t"`
	Regions []regionID `json:"rs"`
}

type ckptVarRegion struct {
	Obj    event.Addr    `json:"o"`
	Field  event.FieldID `json:"f"`
	Region regionID      `json:"r"`
}

type ckptVarRegions struct {
	Obj     event.Addr    `json:"o"`
	Field   event.FieldID `json:"f"`
	Regions []regionID    `json:"rs"`
}

type ckptSyncRegion struct {
	Key    syncKey  `json:"k"`
	Region regionID `json:"r"`
}

type ckptGraph struct {
	LockRegions   bool                `json:"lock_regions,omitempty"`
	MaxViolations int                 `json:"max_violations,omitempty"`
	Pos           int                 `json:"pos"`
	NextID        regionID            `json:"next_id"`
	Regions       []region            `json:"regions,omitempty"`
	Cur           []ckptThreadRegion  `json:"cur,omitempty"`
	LockSpan      []event.Tid         `json:"lock_span,omitempty"`
	LockDepth     []ckptThreadInt     `json:"lock_depth,omitempty"`
	Prev          []ckptThreadRegion  `json:"prev,omitempty"`
	Pending       []ckptThreadRegions `json:"pending,omitempty"`
	LastWrite     []ckptVarRegion     `json:"last_write,omitempty"`
	Readers       []ckptVarRegions    `json:"readers,omitempty"`
	SyncLast      []ckptSyncRegion    `json:"sync_last,omitempty"`
	Edges         [][2]regionID       `json:"edges,omitempty"`
	Violations    []Violation         `json:"violations,omitempty"`
	ViolationsAll int                 `json:"violations_all,omitempty"`
}

// Checkpoint serializes the complete checker state to w. The caller
// must ensure no concurrent Step.
func (c *Checker) Checkpoint(w io.Writer) error {
	hdr, err := json.Marshal(ckptHeader{Format: CheckpointFormatName, Version: CheckpointFormatVersion})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	if err := c.eng.Checkpoint(w); err != nil {
		return err
	}
	raw, err := json.Marshal(c.graphSnapshot())
	if err != nil {
		return err
	}
	body, err := json.Marshal(ckptGraphBody{
		Graph: raw,
		CRC:   fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw)),
	})
	if err != nil {
		return err
	}
	_, err = w.Write(append(body, '\n'))
	return err
}

// graphSnapshot flattens the map-shaped graph state into the sorted,
// slice-shaped checkpoint document.
func (c *Checker) graphSnapshot() ckptGraph {
	g := ckptGraph{
		LockRegions:   c.opts.LockRegions,
		MaxViolations: c.opts.MaxViolations,
		Pos:           c.pos,
		NextID:        c.nextID,
		Violations:    c.Violations(),
		ViolationsAll: c.violationsAll,
	}
	for _, id := range c.sortedRegionIDs() {
		g.Regions = append(g.Regions, *c.regions[id])
	}
	g.Cur = threadRegionSlice(c.cur)
	for t, on := range c.lockSpan {
		if on {
			g.LockSpan = append(g.LockSpan, t)
		}
	}
	sort.Slice(g.LockSpan, func(i, j int) bool { return g.LockSpan[i] < g.LockSpan[j] })
	for t, d := range c.lockDepth {
		if d != 0 {
			g.LockDepth = append(g.LockDepth, ckptThreadInt{Thread: t, N: d})
		}
	}
	sort.Slice(g.LockDepth, func(i, j int) bool { return g.LockDepth[i].Thread < g.LockDepth[j].Thread })
	g.Prev = threadRegionSlice(c.prev)
	for t, rs := range c.pending {
		g.Pending = append(g.Pending, ckptThreadRegions{Thread: t, Regions: append([]regionID(nil), rs...)})
	}
	sort.Slice(g.Pending, func(i, j int) bool { return g.Pending[i].Thread < g.Pending[j].Thread })
	for v, r := range c.lastWrite {
		g.LastWrite = append(g.LastWrite, ckptVarRegion{Obj: v.Obj, Field: v.Field, Region: r})
	}
	sortVarRegions(g.LastWrite)
	for v, rs := range c.readers {
		if len(rs) == 0 {
			continue
		}
		e := ckptVarRegions{Obj: v.Obj, Field: v.Field, Regions: sortedSet(rs)}
		g.Readers = append(g.Readers, e)
	}
	sort.Slice(g.Readers, func(i, j int) bool {
		if g.Readers[i].Obj != g.Readers[j].Obj {
			return g.Readers[i].Obj < g.Readers[j].Obj
		}
		return g.Readers[i].Field < g.Readers[j].Field
	})
	for k, r := range c.syncLast {
		g.SyncLast = append(g.SyncLast, ckptSyncRegion{Key: k, Region: r})
	}
	sort.Slice(g.SyncLast, func(i, j int) bool {
		a, b := g.SyncLast[i].Key, g.SyncLast[j].Key
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return !a.Chan && b.Chan
	})
	for u, outs := range c.edges {
		for v := range outs {
			g.Edges = append(g.Edges, [2]regionID{u, v})
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i][0] != g.Edges[j][0] {
			return g.Edges[i][0] < g.Edges[j][0]
		}
		return g.Edges[i][1] < g.Edges[j][1]
	})
	return g
}

func threadRegionSlice(m map[event.Tid]regionID) []ckptThreadRegion {
	var out []ckptThreadRegion
	for t, r := range m {
		if r != 0 {
			out = append(out, ckptThreadRegion{Thread: t, Region: r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread < out[j].Thread })
	return out
}

func sortVarRegions(s []ckptVarRegion) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Obj != s[j].Obj {
			return s[i].Obj < s[j].Obj
		}
		return s[i].Field < s[j].Field
	})
}

// Restore rebuilds a checker from a snapshot written by Checkpoint.
// attach supplies the non-serializable engine attachments (telemetry).
func Restore(r io.Reader, attach core.RestoreAttach) (*Checker, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("regiontrack: reading snapshot header: %w", err)
	}
	var hdr ckptHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != CheckpointFormatName {
		return nil, fmt.Errorf("regiontrack: not a %s snapshot", CheckpointFormatName)
	}
	if hdr.Version != CheckpointFormatVersion {
		return nil, fmt.Errorf("regiontrack: unsupported snapshot version %d", hdr.Version)
	}
	eng, err := core.RestoreEngine(br, attach)
	if err != nil {
		return nil, fmt.Errorf("regiontrack: restoring race engine: %w", err)
	}
	line, err = readLine(br)
	if err != nil {
		return nil, fmt.Errorf("regiontrack: reading graph body: %w", err)
	}
	var body ckptGraphBody
	if err := json.Unmarshal(line, &body); err != nil {
		return nil, fmt.Errorf("regiontrack: decoding graph body: %w", err)
	}
	if fmt.Sprintf("%08x", crc32.ChecksumIEEE(body.Graph)) != body.CRC {
		return nil, fmt.Errorf("regiontrack: graph checksum mismatch")
	}
	var g ckptGraph
	if err := json.Unmarshal(body.Graph, &g); err != nil {
		return nil, fmt.Errorf("regiontrack: decoding graph: %w", err)
	}

	// The restored engine carries its own options; the throwaway engine
	// New builds from the zero Options is discarded on the next line.
	c := New(Options{LockRegions: g.LockRegions, MaxViolations: g.MaxViolations})
	c.eng = eng
	c.pos = g.Pos
	c.nextID = g.NextID
	for i := range g.Regions {
		reg := g.Regions[i]
		c.regions[reg.ID] = &reg
	}
	for _, e := range g.Cur {
		c.cur[e.Thread] = e.Region
	}
	for _, t := range g.LockSpan {
		c.lockSpan[t] = true
	}
	for _, e := range g.LockDepth {
		c.lockDepth[e.Thread] = e.N
	}
	for _, e := range g.Prev {
		c.prev[e.Thread] = e.Region
	}
	for _, e := range g.Pending {
		c.pending[e.Thread] = append([]regionID(nil), e.Regions...)
	}
	for _, e := range g.LastWrite {
		c.lastWrite[event.Variable{Obj: e.Obj, Field: e.Field}] = e.Region
	}
	for _, e := range g.Readers {
		set := make(map[regionID]struct{}, len(e.Regions))
		for _, id := range e.Regions {
			set[id] = struct{}{}
		}
		c.readers[event.Variable{Obj: e.Obj, Field: e.Field}] = set
	}
	for _, e := range g.SyncLast {
		c.syncLast[e.Key] = e.Region
	}
	for _, e := range g.Edges {
		m := c.edges[e[0]]
		if m == nil {
			m = make(map[regionID]struct{})
			c.edges[e[0]] = m
		}
		m[e[1]] = struct{}{}
	}
	c.violations = g.Violations
	c.violationsAll = g.ViolationsAll
	return c, nil
}

// readLine reads one newline-terminated line without the terminator.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}
