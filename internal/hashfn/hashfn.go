// Package hashfn provides the lightweight multiplicative hash function
// shared by all indexes in the evaluation (paper §4.2: "all methods utilize
// the same lightweight multiplicative hash function") plus the bit-slicing
// helpers extendible hashing needs: the directory is indexed with the most
// significant bits of the hash, and the in-bucket slot comes from an
// independent second hash.
package hashfn

import "math/bits"

// Multiplicative hashing constants: two independent 64-bit odd multipliers.
// fib64 is 2^64 / phi, the classic Fibonacci-hashing constant.
const (
	fib64  = 0x9E3779B97F4A7C15
	mix64b = 0xC2B2AE3D27D4EB4F
)

// Hash is the primary hash: multiplicative with an xor-fold so the most
// significant bits (which index the directory) also depend on the low key
// bits.
func Hash(key uint64) uint64 {
	x := key * fib64
	x ^= x >> 29
	x *= mix64b
	x ^= x >> 32
	return x
}

// Hash2 is the independent second hash used to pick the slot inside a
// bucket, so probe order does not correlate with directory placement.
func Hash2(key uint64) uint64 {
	x := key ^ 0x94D049BB133111EB
	x *= mix64b
	x ^= x >> 31
	x *= fib64
	x ^= x >> 33
	return x
}

// DirIndex extracts the globalDepth most significant bits of h — the
// directory slot of extendible hashing. depth 0 always yields 0.
func DirIndex(h uint64, globalDepth uint) uint64 {
	if globalDepth == 0 {
		return 0
	}
	return h >> (64 - globalDepth)
}

// SplitBit returns the bit that decides which of the two split buckets an
// entry with hash h moves to when a bucket of local depth ld splits: bit
// number ld (0-based) counted from the most significant end.
func SplitBit(h uint64, ld uint) uint64 {
	return (h >> (63 - ld)) & 1
}

// shardMix is a third multiplicative mixer, independent of Hash and Hash2,
// so shard routing does not correlate with directory placement or in-bucket
// probe order within a shard.
const shardMix = 0x2545F4914F6CDD1D

// ShardOf maps key onto one of n shards in [0, n). It is a pure function
// of (key, n): the same key always lands on the same shard, across single
// and batch operation paths. The reduction is Lemire's multiply-shift, so
// n need not be a power of two and no slow modulo is taken on the hot
// path.
func ShardOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	x := key ^ shardMix
	x *= fib64
	x ^= x >> 27
	x *= shardMix
	x ^= x >> 31
	hi, _ := bits.Mul64(x, uint64(n))
	return int(hi)
}
