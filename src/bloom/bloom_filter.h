// Bloom filters for filename point queries (Sections 3.3.3 and 5.1).
//
// The paper's configuration: 1024 bits and k = 7 hash functions per filter,
// with hash indices derived from the MD5 digest of the item (the 128-bit
// signature is split into four 32-bit values; further indices come from
// double hashing over those words, the standard Kirsch–Mitzenmacher
// construction). Index-unit filters are the bitwise OR of their children's
// filters, so a query can walk down the tree following positive hits.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace smartstore::bloom {

/// Derives the i-th Bloom probe index for an item whose MD5 digest words are
/// w, over a filter of `bits` bits. Probes 0..3 use the raw 32-bit digest
/// words (the paper's construction); higher probes extend via double
/// hashing. Shared by BloomFilter and CountingBloomFilter so both address
/// identical bit positions.
std::size_t bloom_probe_index(unsigned i, const std::uint32_t w[4],
                              std::size_t bits);

/// An item's MD5 digest words, computed once and reusable across every
/// filter the item touches. An insert propagating up the semantic R-tree
/// hits one filter per ancestor — and, under multi-writer serving, each of
/// those under a contended stripe lock — so hashing outside the lock and
/// passing the digest in keeps the critical sections to pure bit-sets.
struct ItemHash {
  std::array<std::uint32_t, 4> w{};
};

ItemHash hash_item(std::string_view item);

class BloomFilter {
 public:
  /// Default geometry: the paper's 1024 bits, k = 7.
  BloomFilter() : BloomFilter(1024, 7) {}

  /// `bits` is rounded up to a multiple of 64; `num_hashes` = k.
  explicit BloomFilter(std::size_t bits, unsigned num_hashes = 7);

  /// Rebuilds a filter from raw 64-bit words (used when collapsing a
  /// counting filter for replication). words.size()*64 must equal the
  /// rounded bit count.
  static BloomFilter from_words(std::size_t bits, unsigned num_hashes,
                                std::vector<std::uint64_t> words);

  void insert(std::string_view item);
  void insert(const ItemHash& h);

  /// True if the item may be present; false means definitely absent
  /// (modulo staleness when filters are replicated).
  bool may_contain(std::string_view item) const;
  bool may_contain(const ItemHash& h) const;

  /// Bitwise OR of another filter into this one. Geometry must match.
  void merge(const BloomFilter& other);

  /// All-zero state.
  void clear();

  std::size_t bit_count() const { return bits_; }
  unsigned num_hashes() const { return k_; }
  /// Number of set bits.
  std::size_t popcount() const;
  /// Fraction of set bits (the fill ratio determining false positives).
  double fill_ratio() const;
  /// Expected false-positive probability given the current fill ratio.
  double estimated_fpp() const;
  /// Raw backing words, for serialization; reassemble via from_words so
  /// the geometry stays validated.
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::size_t byte_size() const {
    return sizeof(*this) + words_.capacity() * sizeof(std::uint64_t);
  }

  bool operator==(const BloomFilter&) const = default;

 private:
  std::size_t bits_;
  unsigned k_;
  std::vector<std::uint64_t> words_;
};

/// One item's probe positions, recomputed only when the filter geometry
/// changes: a query that tests one item against many filters of one
/// geometry (a group's version filters) pays the k modulo reductions once
/// instead of once per filter.
class ProbeCache {
 public:
  explicit ProbeCache(const ItemHash& h) : h_(h) {}

  /// The item's positions in a filter of `bits` bits with `k` probes.
  std::span<const std::uint32_t> positions(std::size_t bits, unsigned k) {
    if (bits != bits_ || k != pos_.size()) fill(bits, k);
    return pos_;
  }

 private:
  void fill(std::size_t bits, unsigned k);

  ItemHash h_;
  std::size_t bits_ = 0;
  std::vector<std::uint32_t> pos_;
};

/// A Bloom filter stored as its sorted set-bit positions. A version delta's
/// filter (Section 4.4) has the full filter geometry but records only a few
/// inserts — at most k x version_ratio set bits out of hundreds of thousands
/// at auto-sized geometries — so the dense words would be almost all zero.
/// Answers exactly as a dense BloomFilter holding the same bits; to_dense()
/// and from_dense() convert between the two (the snapshot codec writes the
/// dense words).
class SparseBloomFilter {
 public:
  /// Default geometry: the paper's 1024 bits, k = 7.
  SparseBloomFilter() : SparseBloomFilter(1024, 7) {}

  /// `bits` is rounded up to a multiple of 64, as in BloomFilter.
  explicit SparseBloomFilter(std::size_t bits, unsigned num_hashes = 7);

  static SparseBloomFilter from_dense(const BloomFilter& dense);
  BloomFilter to_dense() const;

  void insert(const ItemHash& h);
  /// Membership of the item whose probe positions `probes` caches.
  bool may_contain(ProbeCache& probes) const {
    const auto pos = probes.positions(bits_, k_);
    // Every folded bit first: most misses end here, without a search.
    for (const std::uint32_t idx : pos)
      if ((folded_ & (1ULL << (idx % 64))) == 0) return false;
    for (const std::uint32_t idx : pos)
      if (!std::binary_search(set_.begin(), set_.end(), idx)) return false;
    return true;
  }

  std::size_t bit_count() const { return bits_; }
  unsigned num_hashes() const { return k_; }
  /// Footprint of the equivalent dense BloomFilter (what a snapshot writes
  /// and what the paper models a version filter as).
  std::size_t dense_byte_size() const {
    return sizeof(BloomFilter) + bits_ / 64 * sizeof(std::uint64_t);
  }

  bool operator==(const SparseBloomFilter&) const = default;

 private:
  std::uint32_t bits_;
  std::uint32_t k_;
  /// Every set position folded onto one word (bit `idx % 64`): a probe whose
  /// folded bit is clear is a definite miss without searching `set_`.
  std::uint64_t folded_ = 0;
  std::vector<std::uint32_t> set_;  ///< set-bit positions, ascending
};

/// Counting Bloom filter: supports deletion and exports a plain BloomFilter
/// view for replication up the tree. 4-bit saturating counters packed two
/// per byte, as in the standard summary-cache design. Saturated counters
/// are sticky (never decremented), which preserves the no-false-negative
/// property under deletion.
class CountingBloomFilter {
 public:
  explicit CountingBloomFilter(std::size_t bits = 1024,
                               unsigned num_hashes = 7);

  void insert(std::string_view item);
  void insert(const ItemHash& h);
  void remove(std::string_view item);
  void remove(const ItemHash& h);
  bool may_contain(std::string_view item) const;
  bool may_contain(const ItemHash& h) const;

  /// Collapses counters to a plain bit filter (counter > 0 -> bit set).
  BloomFilter to_bloom_filter() const;

  std::size_t bit_count() const { return bits_; }
  unsigned num_hashes() const { return k_; }
  std::size_t byte_size() const { return sizeof(*this) + counters_.capacity(); }

 private:
  std::uint8_t get_counter(std::size_t idx) const;
  void set_counter(std::size_t idx, std::uint8_t v);

  std::size_t bits_;
  unsigned k_;
  std::vector<std::uint8_t> counters_;  // two 4-bit counters per byte
};

}  // namespace smartstore::bloom
