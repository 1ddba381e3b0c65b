package main

import "math"

// The benchmark owns its generators: a later PR cannot change the load by
// changing the program. Everything below is a pure function of the seed.

// splitmix64 is key(i): the i-th value of the splitmix64 sequence started
// at seed. Distinct i give distinct keys (the finaliser is a bijection).
func splitmix64(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is a splitmix64 stream used to pre-generate op streams in set-up.
type rng struct{ seed, n uint64 }

func (r *rng) next() uint64 {
	r.n++
	return splitmix64(r.seed, r.n)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// uniformStream returns n uniform 32-bit values. A consumer maps one onto
// [0, m) with scale, so one stream serves every wave of index_waves.
func uniformStream(seed uint64, n int) []uint32 {
	r := rng{seed: seed}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.next() >> 32)
	}
	return out
}

// scale maps a uniform 32-bit value onto [0, m).
func scale(u uint32, m uint64) uint64 { return uint64(u) * m >> 32 }

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by the
// method of Gray et al. ("Quickly generating billion-record synthetic
// databases", SIGMOD 1994), the one YCSB uses.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// servedOp is one pre-generated operation of a served workload: the key
// index in the low bits, opPut set for a PUT.
type servedOp uint32

const opPut servedOp = 1 << 31

func (o servedOp) index() uint64 { return uint64(o &^ opPut) }
func (o servedOp) isPut() bool   { return o&opPut != 0 }

// servedStream pre-generates one connection's ops: zipfian ranks scattered
// over the key space by an odd multiplier (a bijection on a power of two,
// so hot keys land in unrelated buckets and shards), a putShare of PUTs.
// The two connections write disjoint key sets — connection c owns the keys
// of index parity c — so a PUT that drew a foreign key takes that key's
// neighbour (index XOR 1) instead.
func servedStream(z *zipf, seed uint64, conn, length int, putShare float64) []servedOp {
	r := rng{seed: seed}
	mask := uint64(z.n) - 1
	out := make([]servedOp, length)
	for j := range out {
		i := z.rank(r.float()) * 0x9E3779B1 & mask
		o := servedOp(i)
		if r.float() < putShare {
			if !owns(conn, i) {
				i ^= 1
			}
			o = servedOp(i) | opPut
		}
		out[j] = o
	}
	return out
}

// servedConns is the client count of the served workloads, sized for the
// two CPUs of the reference host (one goroutine per connection).
const servedConns = 2

// owns reports whether connection conn is the only writer of key index i.
func owns(conn int, i uint64) bool { return int(i&1) == conn }
