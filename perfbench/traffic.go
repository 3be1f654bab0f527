package main

import (
	"fmt"
	"math/rand"
	"sort"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// The stream traffic: genThreads detector threads share genLocks locks,
// each guarding genObjsPerLock objects of genFields fields (2048
// variables). Most work is lock-protected critical sections. A few
// mailboxes move between threads through volatile flags; a receiver
// sometimes relays a mailbox on without touching it, so the next
// owner's check has to walk the event list past a third thread. Rarely
// two threads write a fresh variable back to back with no
// synchronization between them: exactly one real race.
const (
	genThreads     = 8
	genLocks       = 16
	genObjsPerLock = 32
	genFields      = 4
	genMailboxes   = 8

	pLocal = 0.15   // an idle thread touches its own variable
	pRecv  = 0.1    // an idle thread picks up a mailbox handed to it
	pRace  = 0.0001 // a racing pair of writes starts at this step

	lockBase    = 1
	flagObj     = 50  // volatile flags, one field per mailbox
	mailboxBase = 60  // mailbox objects
	localBase   = 500 // one thread-local object per thread
	dataBase    = 1000
	raceBase    = 1 << 20 // a fresh object per racing pair
)

type genThread struct {
	tid  event.Tid
	fav  [2]int // favourite locks, taken four times in five
	lock int    // held lock, -1 for none
	mbox int    // mailbox being worked on, -1 for none
	left int    // accesses left in the current section
}

// traffic is one generated session trace with the verdicts an
// in-process engine reaches on it.
type traffic struct {
	actions []event.Action
	keys    []string   // reference race set: position and variable
	stats   core.Stats // reference engine counters
	// listPeak is the longest event list of the reference replay,
	// checked after every action; only a timed replay measures it.
	listPeak int
}

// genTraffic generates steps actions (a few more to end every open
// section and join the threads) from rng.
func genTraffic(rng *rand.Rand, steps int) []event.Action {
	out := make([]event.Action, 0, steps+4*genThreads)
	ts := make([]*genThread, genThreads)
	for i := range ts {
		ts[i] = &genThread{tid: event.Tid(i + 1), lock: -1, mbox: -1}
		ts[i].fav = [2]int{rng.Intn(genLocks), rng.Intn(genLocks)}
		if i > 0 {
			out = append(out, event.Fork(1, ts[i].tid))
		}
	}
	holder := make([]int, genLocks) // thread index holding each lock, -1 free
	for i := range holder {
		holder[i] = -1
	}
	pending := make([]int, genMailboxes) // thread a mailbox is handed to
	for m := range pending {
		pending[m] = m % genThreads
	}

	guarded := func(t *genThread, l int) event.Action {
		o := event.Addr(dataBase + l*genObjsPerLock + rng.Intn(genObjsPerLock))
		f := event.FieldID(rng.Intn(genFields))
		if rng.Intn(5) < 3 {
			return event.Read(t.tid, o, f)
		}
		return event.Write(t.tid, o, f)
	}
	mailboxAccess := func(t *genThread) event.Action {
		o, f := event.Addr(mailboxBase+t.mbox), event.FieldID(rng.Intn(genFields))
		if rng.Intn(2) == 0 {
			return event.Read(t.tid, o, f)
		}
		return event.Write(t.tid, o, f)
	}
	// advance emits the next action of a thread that is inside a section.
	advance := func(i int) {
		t := ts[i]
		switch {
		case t.left > 0 && t.lock >= 0:
			out = append(out, guarded(t, t.lock))
			t.left--
		case t.left > 0:
			out = append(out, mailboxAccess(t))
			t.left--
		case t.lock >= 0:
			out = append(out, event.Release(t.tid, event.Addr(lockBase+t.lock)))
			holder[t.lock], t.lock = -1, -1
		default:
			u := rng.Intn(genThreads - 1)
			if u >= i {
				u++
			}
			out = append(out, event.VolatileWrite(t.tid, flagObj, event.FieldID(t.mbox)))
			pending[t.mbox], t.mbox = u, -1
		}
	}

	races := 0
	for len(out) < steps {
		if rng.Float64() < pRace {
			a, b := rng.Intn(genThreads), rng.Intn(genThreads-1)
			if b >= a {
				b++
			}
			o := event.Addr(raceBase + races)
			races++
			out = append(out, event.Write(ts[a].tid, o, 0), event.Write(ts[b].tid, o, 0))
			continue
		}
		i := rng.Intn(genThreads)
		t := ts[i]
		if t.lock >= 0 || t.mbox >= 0 {
			advance(i)
			continue
		}
		if m := mailboxFor(pending, i); m >= 0 && rng.Float64() < pRecv {
			out = append(out, event.VolatileRead(t.tid, flagObj, event.FieldID(m)))
			pending[m], t.mbox, t.left = -1, m, rng.Intn(3)
			continue
		}
		switch {
		case rng.Float64() < pLocal:
			o, f := event.Addr(localBase+i), event.FieldID(rng.Intn(genFields))
			if rng.Intn(2) == 0 {
				out = append(out, event.Read(t.tid, o, f))
			} else {
				out = append(out, event.Write(t.tid, o, f))
			}
		default:
			l := t.fav[rng.Intn(2)]
			if rng.Intn(5) == 0 {
				l = rng.Intn(genLocks)
			}
			if holder[l] >= 0 {
				continue // contended: the thread waits
			}
			out = append(out, event.Acquire(t.tid, event.Addr(lockBase+l)))
			holder[l], t.lock, t.left = i, l, 1+rng.Intn(4)
		}
	}
	// End every open section, then the first thread joins the others.
	for i, t := range ts {
		for t.lock >= 0 || t.mbox >= 0 {
			advance(i)
		}
	}
	for _, t := range ts[1:] {
		out = append(out, event.Join(1, t.tid))
	}
	return out
}

// mailboxFor returns a mailbox handed to thread i, or -1.
func mailboxFor(pending []int, i int) int {
	for m, u := range pending {
		if u == i {
			return m
		}
	}
	return -1
}

// raceKeys returns the sorted race set of a run: position and variable,
// the pair a daemon verdict must match.
func raceKeys(races []detect.Race) []string {
	keys := make([]string, len(races))
	for i, r := range races {
		keys[i] = fmt.Sprintf("%d:%v", r.Pos, r.Var)
	}
	sort.Strings(keys)
	return keys
}

// newTraffic generates one session trace from seed, checks it is
// well-formed, and computes its reference verdicts with an in-process
// engine configured like the daemon's session engines. sp, when
// non-nil, times every engine call of the replay.
func newTraffic(seed int64, steps int, sp *spans) (*traffic, error) {
	actions := genTraffic(rand.New(rand.NewSource(seed)), steps)
	tr := event.NewTrace(actions)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("generated trace (seed %d) is invalid: %w", seed, err)
	}
	eng := core.NewEngine(core.DefaultOptions())
	var races []detect.Race
	listPeak := 0
	if sp == nil {
		races = detect.RunTrace(eng, tr)
	} else {
		sp.eng = eng
		for i, a := range actions {
			for _, r := range sp.step(a) {
				r.Pos = i
				races = append(races, r)
			}
			listPeak = max(listPeak, eng.ListLen())
		}
	}
	return &traffic{actions: actions, keys: raceKeys(races), stats: eng.Stats(), listPeak: listPeak}, nil
}
