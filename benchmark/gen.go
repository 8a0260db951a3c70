package main

import (
	"hash/fnv"
	"math/rand"
)

// The operation stream. A client's stream of transaction plans is a pure
// function of (seed, workload, trial, client): the engine only ever sees the
// generated operations, never the seed.

type opKind uint8

const (
	opUpdate opKind = iota
	opGet
	opToggle // insert the slab row if absent, delete it if present
	opInsert // steady_mixed pair: insert slab slot
	opDelete // steady_mixed pair: delete slab slot
)

// Transaction types, reported separately on steady_mixed.
const (
	txnUpdate = iota
	txnRead
	txnPair
	nTxnTypes
)

var txnTypeNames = [nTxnTypes]string{"update", "read", "pair"}

// op is one planned operation. key is always a valid update key, so that a
// toggle can fall back to an update once its target stopped taking inserts
// (after switchover the new table has another shape).
type op struct {
	kind opKind
	tgt  uint8 // index into the workload's targets
	slot int32 // slab slot of a toggle/insert/delete
	key  int64
	val  int64
}

// plan is one logical transaction; a retry replays the same plan.
type plan struct {
	typ int
	n   int
	ops [opsPerTxn]op
}

// genTarget is what the generator needs to know of a target table.
type genTarget struct {
	keys    int64
	cum     float64 // cumulative weight, last = 1
	toggles bool
}

type generator struct {
	spec    *spec
	rng     *rand.Rand
	targets []genTarget
	pairs   int64 // insert+delete pairs planned so far (steady_mixed)
}

// streamSeed mixes the identifying tuple of a stream into one RNG seed.
func streamSeed(seed int64, workload string, trial, client int) int64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	put(uint64(seed))
	_, _ = h.Write([]byte(workload))
	put(uint64(trial))
	put(uint64(client))
	return int64(h.Sum64())
}

func newGenerator(s *spec, seed int64, trial, client int) *generator {
	g := &generator{spec: s, rng: rand.New(rand.NewSource(streamSeed(seed, s.name, trial, client)))}
	for _, t := range s.targets() {
		g.targets = append(g.targets, genTarget{keys: t.keys, cum: t.cum, toggles: t.mkRow != nil})
	}
	return g
}

func (g *generator) pickTarget() uint8 {
	x := g.rng.Float64()
	for i := range g.targets {
		if x < g.targets[i].cum {
			return uint8(i)
		}
	}
	return uint8(len(g.targets) - 1)
}

func (g *generator) pickKey(keys int64) int64 {
	if g.spec.hotFrac > 0 && g.rng.Float64() < g.spec.hotFrac {
		if hot := int64(float64(keys) * g.spec.hotKeys); hot > 0 {
			return g.rng.Int63n(hot)
		}
	}
	return g.rng.Int63n(keys)
}

// next fills p with the client's next transaction.
func (g *generator) next(p *plan) {
	p.typ, p.n = txnUpdate, opsPerTxn
	kind := opUpdate
	if g.spec.kind == kindSteady {
		switch x := g.rng.Float64(); {
		case x < 0.5:
			p.typ, kind = txnRead, opGet
		case x < 0.9:
		default:
			// Exactly one insert and one delete: slot i is inserted by pair i
			// and deleted by pair i+slabSize/2, so half the slab is live.
			p.typ, p.n = txnPair, 1
			i := g.pairs
			g.pairs++
			p.ops[0] = op{kind: opInsert, slot: int32(i % slabSize)}
			if i >= slabSize/2 {
				p.ops[1] = op{kind: opDelete, slot: int32((i - slabSize/2) % slabSize)}
				p.n = 2
			}
			return
		}
	}
	for i := 0; i < p.n; i++ {
		o := &p.ops[i]
		*o = op{kind: kind, tgt: g.pickTarget()}
		t := &g.targets[o.tgt]
		if kind == opUpdate && t.toggles && g.spec.toggleFrac > 0 && g.rng.Float64() < g.spec.toggleFrac {
			o.kind = opToggle
			o.slot = int32(g.rng.Intn(slabSize))
		}
		o.key = g.pickKey(t.keys)
		o.val = g.rng.Int63()
	}
}
