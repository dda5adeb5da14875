package commutative

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
)

// ErrDeltaConflict reports a delta that disagrees with the cached set —
// a deletion of an element not present, an update of an absent value, or
// an insertion already present.  It means the caller's change report and
// the cached state have diverged; the only sound recovery is a full
// rebuild under a fresh encryption of the current set.
var ErrDeltaConflict = errors.New("commutative: delta conflicts with cached set")

// CipherDelta is the ciphertext-space image of one ApplyDelta call: the
// encrypted values it added, replaced, and removed, each vector sorted
// (the paper's footnote-3 discipline — shipping a delta in value order
// would leak which value changed first).  The standing-query push path
// sends exactly these vectors to a subscribed receiver, so the C_e spent
// re-encrypting the churn is paid once for both cache maintenance and
// the wire update.
type CipherDelta struct {
	// Inserted holds f_e(h(v)) for values newly present, sorted, with
	// InsertedPayload the aligned payload ciphertexts (nil when the set
	// carries no payloads).
	Inserted        []*big.Int
	InsertedPayload [][]byte
	// Updated holds f_e(h(v)) for values present throughout whose
	// payload was replaced, sorted, with the new payloads aligned.
	Updated        []*big.Int
	UpdatedPayload [][]byte
	// Deleted holds f_e(h(v)) for values no longer present, sorted.
	Deleted []*big.Int
}

// Upserts returns the insert and update vectors merged into one sorted
// vector with aligned payloads — the shape the subscription wire message
// carries (a receiver treats both identically: store the pair).
func (d *CipherDelta) Upserts() ([]*big.Int, [][]byte) {
	n := len(d.Inserted) + len(d.Updated)
	elems := make([]*big.Int, 0, n)
	var payload [][]byte
	if d.InsertedPayload != nil || d.UpdatedPayload != nil {
		payload = make([][]byte, 0, n)
	}
	i, j := 0, 0
	for i < len(d.Inserted) || j < len(d.Updated) {
		takeIns := j >= len(d.Updated) ||
			(i < len(d.Inserted) && d.Inserted[i].Cmp(d.Updated[j]) < 0)
		if takeIns {
			elems = append(elems, d.Inserted[i])
			if payload != nil {
				payload = append(payload, d.InsertedPayload[i])
			}
			i++
		} else {
			elems = append(elems, d.Updated[j])
			if payload != nil {
				payload = append(payload, d.UpdatedPayload[j])
			}
			j++
		}
	}
	return elems, payload
}

// ApplyDelta re-encrypts only the changed plaintext values under the
// set's pinned key and returns a new CachedSet holding the updated
// sorted representation, plus the ciphertext-space delta.  ins, upd and
// del are hashed plaintext values (the h(v) the set was built from):
// inserted values must be absent from the set, updated and deleted
// values present — any disagreement returns ErrDeltaConflict and the
// caller falls back to a full rebuild.  When the set carries payloads,
// insPayload and updPayload supply the new payload ciphertexts aligned
// with ins and upd; payload-less sets must pass upd empty (an update
// with nothing to replace is meaningless).
//
// The receiver is not mutated: in-flight protocol runs replaying the old
// set keep a consistent view, and the C_e cost is exactly
// len(ins)+len(upd)+len(del) — O(churn), not O(|V|).
func (c *CachedSet) ApplyDelta(ctx context.Context, s Scheme, ins, upd, del []*big.Int, insPayload, updPayload [][]byte, parallelism int) (*CachedSet, *CipherDelta, error) {
	if c.payload == nil {
		if insPayload != nil || updPayload != nil {
			return nil, nil, fmt.Errorf("commutative: payload delta against a payload-less cached set")
		}
		if len(upd) > 0 {
			return nil, nil, fmt.Errorf("commutative: update delta against a payload-less cached set")
		}
	} else {
		if len(insPayload) != len(ins) || len(updPayload) != len(upd) {
			return nil, nil, fmt.Errorf("commutative: delta payloads misaligned: %d/%d inserts, %d/%d updates",
				len(insPayload), len(ins), len(updPayload), len(upd))
		}
	}

	encIns, err := EncryptAll(ctx, s, c.key, ins, parallelism)
	if err != nil {
		return nil, nil, err
	}
	encUpd, err := EncryptAll(ctx, s, c.key, upd, parallelism)
	if err != nil {
		return nil, nil, err
	}
	encDel, err := EncryptAll(ctx, s, c.key, del, parallelism)
	if err != nil {
		return nil, nil, err
	}
	delta := &CipherDelta{
		Inserted: encIns, InsertedPayload: append([][]byte(nil), insPayload...),
		Updated: encUpd, UpdatedPayload: append([][]byte(nil), updPayload...),
		Deleted: encDel,
	}
	SortAligned(delta.Inserted, delta.InsertedPayload)
	SortAligned(delta.Updated, delta.UpdatedPayload)
	SortAligned(delta.Deleted, nil)

	// Resolve deletions and updates against the sorted vector.
	removed := make(map[int]bool, len(delta.Deleted))
	for _, y := range delta.Deleted {
		i, ok := c.find(y)
		if !ok || removed[i] {
			return nil, nil, fmt.Errorf("%w: deleted element not in set", ErrDeltaConflict)
		}
		removed[i] = true
	}
	replaced := make(map[int][]byte, len(delta.Updated))
	for j, y := range delta.Updated {
		i, ok := c.find(y)
		if !ok || removed[i] {
			return nil, nil, fmt.Errorf("%w: updated element not in set", ErrDeltaConflict)
		}
		replaced[i] = delta.UpdatedPayload[j]
	}
	for j, y := range delta.Inserted {
		if j > 0 && y.Cmp(delta.Inserted[j-1]) == 0 {
			return nil, nil, fmt.Errorf("%w: duplicate inserted element", ErrDeltaConflict)
		}
		if i, ok := c.find(y); ok && !removed[i] {
			return nil, nil, fmt.Errorf("%w: inserted element already in set", ErrDeltaConflict)
		}
	}

	// Rebuild the sorted vector: survivors (with replacements applied)
	// merged with the sorted insertions.
	n := len(c.elems) - len(removed) + len(delta.Inserted)
	elems := make([]*big.Int, 0, n)
	var payload [][]byte
	if c.payload != nil {
		payload = make([][]byte, 0, n)
	}
	ii := 0 // next insertion
	emitIns := func(limit *big.Int) {
		for ii < len(delta.Inserted) && (limit == nil || delta.Inserted[ii].Cmp(limit) < 0) {
			elems = append(elems, delta.Inserted[ii])
			if payload != nil {
				payload = append(payload, delta.InsertedPayload[ii])
			}
			ii++
		}
	}
	for i, e := range c.elems {
		if removed[i] {
			continue
		}
		emitIns(e)
		elems = append(elems, e)
		if payload != nil {
			if p, ok := replaced[i]; ok {
				payload = append(payload, p)
			} else {
				payload = append(payload, c.payload[i])
			}
		}
	}
	emitIns(nil)

	next, err := CachedSetFromSorted(c.key, elems, payload)
	if err != nil {
		return nil, nil, err
	}
	return next, delta, nil
}

// find locates y in the sorted element vector.
func (c *CachedSet) find(y *big.Int) (int, bool) {
	i := sort.Search(len(c.elems), func(j int) bool { return c.elems[j].Cmp(y) >= 0 })
	if i < len(c.elems) && c.elems[i].Cmp(y) == 0 {
		return i, true
	}
	return i, false
}

// SortAligned sorts elems ascending in place, permuting the aligned
// payload vector (when non-nil) identically.
func SortAligned(elems []*big.Int, payload [][]byte) {
	if payload == nil {
		sort.Slice(elems, func(i, j int) bool { return elems[i].Cmp(elems[j]) < 0 })
		return
	}
	idx := make([]int, len(elems))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return elems[idx[a]].Cmp(elems[idx[b]]) < 0 })
	se := make([]*big.Int, len(elems))
	sp := make([][]byte, len(payload))
	for to, from := range idx {
		se[to] = elems[from]
		sp[to] = payload[from]
	}
	copy(elems, se)
	copy(payload, sp)
}
