#ifndef MODULARIS_SUBOPERATORS_RADIX_H_
#define MODULARIS_SUBOPERATORS_RADIX_H_

#include <cstdint>

/// \file radix.h
/// Radix partitioning parameters shared by LocalHistogram, LocalPartition,
/// the MPI exchange and the monolithic baseline join. The network phase
/// consumes the low `bits` of the (hashed) key; the local phase consumes
/// the next `bits` (shift = network bits), exactly as in the multi-pass
/// radix join of Barthels et al. [14] that §4.1 reconstructs.

namespace modularis {

/// Hash applied to keys before radix extraction. Identity matches the
/// paper's dense-domain workloads and enables the 16→8 byte compression;
/// kMix is a finalizer-style hash for arbitrary key distributions.
enum class RadixHash : uint8_t { kIdentity, kMix };

inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// One radix pass: partition = (hash(key) >> shift) & (2^bits - 1).
struct RadixSpec {
  int bits = 6;
  int shift = 0;
  RadixHash hash = RadixHash::kIdentity;

  int fanout() const { return 1 << bits; }

  uint32_t PartitionOf(int64_t key) const {
    uint64_t h = hash == RadixHash::kIdentity
                     ? static_cast<uint64_t>(key)
                     : MixHash64(static_cast<uint64_t>(key));
    return static_cast<uint32_t>((h >> shift) & ((1u << bits) - 1));
  }
};

/// Packs key/value into the 8-byte exchange word given the network radix
/// width F and the domain width P (2·P − F ≤ 64 required).
inline int64_t CompressKV(int64_t key, int64_t value, int radix_bits,
                          int domain_bits) {
  int64_t key_hi = key >> radix_bits;
  return (key_hi << domain_bits) | value;
}
/// Recovers ⟨key, value⟩ from a word and its network partition id.
inline void DecompressKV(int64_t word, int64_t pid, int radix_bits,
                         int domain_bits, int64_t* key, int64_t* value) {
  int64_t key_hi = word >> domain_bits;
  *key = (key_hi << radix_bits) | pid;
  *value = word & ((int64_t{1} << domain_bits) - 1);
}

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_RADIX_H_
