package main

// The oracle is what the final tables must hold, kept by the clients and
// never read back from the engine. A client draws a sequence number for each
// write while its transaction still holds the record lock; under strict 2PL
// two writers of one key hold the lock one after the other, so the order of
// their sequence numbers is the order in which the engine serialized them.
// The write with the highest committed sequence number is the key's value.

type pendingWrite struct {
	logical int
	key     int64
	seq     uint64
	val     int64
}

// clientOracle is one client's committed writes: per logical table and key,
// the last value it committed and the sequence number of that write (0 =
// never written), plus the occupancy of its private insert/delete slab.
type clientOracle struct {
	seq  [nLogical][]uint64
	val  [nLogical][]int64
	slab [slabSize]bool

	// The in-flight transaction: applied by commit, dropped by rollback.
	pend     []pendingWrite
	pendSlab []int32
}

func newClientOracle(s *spec) *clientOracle {
	o := &clientOracle{}
	for _, t := range s.targets() {
		o.seq[t.logical] = make([]uint64, t.keys)
		o.val[t.logical] = make([]int64, t.keys)
	}
	return o
}

func (o *clientOracle) write(logical int, key int64, seq uint64, val int64) {
	o.pend = append(o.pend, pendingWrite{logical, key, seq, val})
}

// toggle flips a slab slot for the in-flight transaction; later operations
// of the same transaction see the flipped state.
func (o *clientOracle) toggle(slot int32) {
	o.slab[slot] = !o.slab[slot]
	o.pendSlab = append(o.pendSlab, slot)
}

func (o *clientOracle) commit() {
	for _, w := range o.pend {
		o.seq[w.logical][w.key] = w.seq
		o.val[w.logical][w.key] = w.val
	}
	o.pend, o.pendSlab = o.pend[:0], o.pendSlab[:0]
}

func (o *clientOracle) rollback() {
	for _, slot := range o.pendSlab {
		o.slab[slot] = !o.slab[slot]
	}
	o.pend, o.pendSlab = o.pend[:0], o.pendSlab[:0]
}

// merged returns the final value of every key of one logical table: the
// write with the highest sequence number over all clients, or the initial
// value 0 where nobody wrote.
func merged(clients []*clientOracle, logical int) []int64 {
	n := len(clients[0].val[logical])
	out := make([]int64, n)
	for k := 0; k < n; k++ {
		var best uint64
		for _, c := range clients {
			if s := c.seq[logical][k]; s > best {
				best, out[k] = s, c.val[logical][k]
			}
		}
	}
	return out
}
