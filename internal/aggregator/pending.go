package aggregator

import (
	"slices"
	"sync"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
)

// pendKey identifies one device's table for one policy.
type pendKey struct {
	key    fleetd.Key
	device string
}

// fedEntry is the edge's federation state for one (policy, device)
// pair. The device's rows live in the local store; the entry records
// what the root lacks of them: the states the device's accepted uploads
// changed since the last forward the root accepted, and the root
// generation of that forward, which a delta names as its base.
type fedEntry struct {
	// rootGen is the device's generation at the root instance rootID
	// after this edge's last accepted forward; 0 means the next forward
	// must be the full table (none yet, or the root refused the last
	// one), and so does a root instance other than rootID.
	rootGen int64
	rootID  uint64
	// ready: an accepted upload awaits forwarding. full: the next
	// forward must be the full table. states lists, per role and
	// ascending, the states changed since the last forward.
	ready  bool
	full   bool
	states [][]core.StateKey
	// holds counts uploads in flight that reserved the entry's queue
	// slot; inFlight marks an entry a flush has taken and not settled.
	holds    int
	inFlight bool
	queued   bool // the entry holds a slot in order
}

// taken is one entry a flush forwards: a snapshot of what it must
// carry, made when the flush took it.
type taken struct {
	pk     pendKey
	e      *fedEntry
	base   int64             // 0: forward the full table
	states [][]core.StateKey // the delta's states when base > 0
}

// pending is the bounded queue of entries awaiting upward federation,
// between the device-facing handlers and the flush pipeline. It keeps
// an entry past its forward while the root holds a generation for it
// (one per device the edge forwarded, which the local store holds
// anyway). FIFO
// across entries (oldest first); a device re-uploading folds its
// changes into its waiting entry instead of taking another slot, so
// the bound counts distinct (policy, device) pairs — the only thing the
// root ultimately keeps — not raw request volume. An upload reserves
// its slot before the local store sees it (a full queue answers 429
// and the store stays untouched) and commits or aborts afterwards.
type pending struct {
	mu      sync.Mutex
	limit   int
	entries map[pendKey]*fedEntry
	order   []pendKey // queued entries, oldest first
}

func newPending(limit int) *pending {
	return &pending{limit: limit, entries: make(map[pendKey]*fedEntry)}
}

// reserve holds pk's queue slot for an upload about to reach the local
// store. It reports the depth afterwards and ok=false when a new slot
// would exceed the bound; an entry already queued always has room, so
// a device that honors Retry-After never loses its slot to its own
// retries.
func (q *pending) reserve(pk pendKey) (depth int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[pk]
	if e == nil || !e.queued {
		if len(q.order) >= q.limit {
			return len(q.order), false
		}
		if e == nil {
			e = &fedEntry{}
			q.entries[pk] = e
		}
		q.order = append(q.order, pk)
		e.queued = true
	}
	e.holds++
	return len(q.order), true
}

// commit records an upload the local store accepted, folding what it
// changed into the entry.
func (q *pending) commit(pk pendKey, ch *cloud.Changes) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[pk]
	e.holds--
	e.ready = true
	e.fold(ch.Replace, ch.States)
	q.settle(pk, e, false)
}

// abort releases the slot of an upload the local store refused. The
// entry keeps whatever earlier accepted uploads recorded, so a refused
// re-upload never costs the root a table the edge acked.
func (q *pending) abort(pk pendKey) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[pk]
	e.holds--
	q.settle(pk, e, false)
}

// fold adds one upload's (or a returned snapshot's) changes.
func (e *fedEntry) fold(full bool, states [][]core.StateKey) {
	e.full = e.full || full
	switch {
	case states == nil:
	case e.states == nil:
		e.states = states
	case len(states) != len(e.states):
		e.full = true // a role layout change, which the store refuses
	default:
		for r, add := range states {
			if len(add) > 0 {
				merged := append(e.states[r], add...)
				slices.Sort(merged)
				e.states[r] = slices.Compact(merged)
			}
		}
	}
}

// settle keeps an entry queued exactly while it has something to
// forward or an upload holding its slot (front puts a re-queued entry
// first), and forgets an entry that no longer carries anything.
func (q *pending) settle(pk pendKey, e *fedEntry, front bool) {
	switch want := e.ready || e.holds > 0; {
	case want && !e.queued:
		if front {
			q.order = append([]pendKey{pk}, q.order...)
		} else {
			q.order = append(q.order, pk)
		}
		e.queued = true
	case !want && e.queued:
		q.order = slices.DeleteFunc(q.order, func(k pendKey) bool { return k == pk })
		e.queued = false
	}
	if !e.queued && !e.inFlight && e.rootGen == 0 {
		delete(q.entries, pk)
	}
}

// take pops up to n of the oldest entries with an accepted upload,
// snapshotting what each must forward to root instance root: a delta
// on the entry's generation when that instance answered it, else the
// full table. An entry whose slot an upload still holds stays queued
// for that upload.
func (q *pending) take(n int, root uint64) []taken {
	q.mu.Lock()
	defer q.mu.Unlock()
	var batch []taken
	keep := q.order[:0]
	for _, pk := range q.order {
		e := q.entries[pk]
		if len(batch) == n || !e.ready {
			keep = append(keep, pk)
			continue
		}
		t := taken{pk: pk, e: e}
		if !e.full && e.rootGen > 0 && e.rootID == root && e.states != nil {
			t.base, t.states = e.rootGen, e.states
		}
		batch = append(batch, t)
		e.ready, e.full, e.states, e.inFlight = false, false, nil, true
		if e.holds > 0 {
			keep = append(keep, pk)
		} else {
			e.queued = false
		}
	}
	clear(q.order[len(keep):])
	q.order = keep
	return batch
}

// accepted settles a forward that root instance root accepted at
// generation gen.
func (q *pending) accepted(t taken, gen int64, root uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t.e.rootGen, t.e.rootID, t.e.inFlight = gen, root, false
	q.settle(t.pk, t.e, false)
}

// refused settles a forward the root rejected (drop: the item is
// poisoned and is not retried) or found stale (resend the full table
// first thing). Either way the root's rows for the device are not what
// the entry assumed, so the device's next forward is full.
func (q *pending) refused(t taken, resend bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t.e.rootGen, t.e.inFlight = 0, false
	if resend {
		t.e.ready = true
	}
	q.settle(t.pk, t.e, true)
}

// putBack returns a batch whose push failed to the front of the queue,
// folding each snapshot back into its entry (a device that uploaded
// again meanwhile keeps both changes). It ignores the bound: the
// entries held slots when taken, and refusing them here would lose
// device tables.
func (q *pending) putBack(batch []taken) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := len(batch) - 1; i >= 0; i-- {
		t := batch[i]
		t.e.ready, t.e.inFlight = true, false
		t.e.fold(t.base == 0, t.states)
		q.settle(t.pk, t.e, true)
	}
}

// depth reports how many entries are queued.
func (q *pending) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order)
}
