#include "bloom/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "bloom/md5.h"

namespace smartstore::bloom {

std::size_t bloom_probe_index(unsigned i, const std::uint32_t w[4],
                              std::size_t bits) {
  std::uint64_t h;
  switch (i) {
    case 0: h = w[0]; break;
    case 1: h = w[1]; break;
    case 2: h = w[2]; break;
    case 3: h = w[3]; break;
    default: {
      const std::uint64_t ii = i;
      h = static_cast<std::uint64_t>(w[0]) + ii * w[1] + ii * ii * w[2] +
          (ii << 16) * w[3];
      break;
    }
  }
  return static_cast<std::size_t>(h % bits);
}

BloomFilter::BloomFilter(std::size_t bits, unsigned num_hashes)
    : bits_((bits + 63) / 64 * 64), k_(num_hashes), words_(bits_ / 64, 0) {
  assert(bits > 0 && num_hashes > 0);
}

BloomFilter BloomFilter::from_words(std::size_t bits, unsigned num_hashes,
                                    std::vector<std::uint64_t> words) {
  BloomFilter bf(bits, num_hashes);
  assert(words.size() == bf.words_.size());
  bf.words_ = std::move(words);
  return bf;
}

ItemHash hash_item(std::string_view item) { return {md5(item).words()}; }

void BloomFilter::insert(std::string_view item) { insert(hash_item(item)); }

void BloomFilter::insert(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    words_[idx / 64] |= (1ULL << (idx % 64));
  }
}

bool BloomFilter::may_contain(std::string_view item) const {
  return may_contain(hash_item(item));
}

bool BloomFilter::may_contain(const ItemHash& h) const {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    if ((words_[idx / 64] & (1ULL << (idx % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::merge(const BloomFilter& other) {
  assert(bits_ == other.bits_ && k_ == other.k_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BloomFilter::clear() {
  for (auto& w : words_) w = 0;
}

std::size_t BloomFilter::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double BloomFilter::fill_ratio() const {
  return static_cast<double>(popcount()) / static_cast<double>(bits_);
}

double BloomFilter::estimated_fpp() const {
  return std::pow(fill_ratio(), static_cast<double>(k_));
}

void ProbeCache::fill(std::size_t bits, unsigned k) {
  bits_ = bits;
  pos_.resize(k);
  for (unsigned i = 0; i < k; ++i)
    pos_[i] =
        static_cast<std::uint32_t>(bloom_probe_index(i, h_.w.data(), bits));
}

SparseBloomFilter::SparseBloomFilter(std::size_t bits, unsigned num_hashes)
    : bits_(static_cast<std::uint32_t>((bits + 63) / 64 * 64)),
      k_(num_hashes) {
  assert(bits > 0 && num_hashes > 0);
  assert((bits + 63) / 64 * 64 <= std::numeric_limits<std::uint32_t>::max());
}

SparseBloomFilter SparseBloomFilter::from_dense(const BloomFilter& dense) {
  SparseBloomFilter sf(dense.bit_count(), dense.num_hashes());
  const auto& words = dense.words();
  sf.set_.reserve(dense.popcount());
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(w));
      sf.set_.push_back(static_cast<std::uint32_t>(wi * 64 + bit));
      sf.folded_ |= 1ULL << bit;
    }
  }
  return sf;
}

BloomFilter SparseBloomFilter::to_dense() const {
  std::vector<std::uint64_t> words(bits_ / 64, 0);
  for (const std::uint32_t idx : set_) words[idx / 64] |= 1ULL << (idx % 64);
  return BloomFilter::from_words(bits_, k_, std::move(words));
}

void SparseBloomFilter::insert(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const auto idx =
        static_cast<std::uint32_t>(bloom_probe_index(i, h.w.data(), bits_));
    folded_ |= 1ULL << (idx % 64);
    const auto it = std::lower_bound(set_.begin(), set_.end(), idx);
    if (it == set_.end() || *it != idx) set_.insert(it, idx);
  }
}

CountingBloomFilter::CountingBloomFilter(std::size_t bits, unsigned num_hashes)
    : bits_((bits + 63) / 64 * 64), k_(num_hashes),
      counters_((bits_ + 1) / 2, 0) {
  assert(bits > 0 && num_hashes > 0);
}

std::uint8_t CountingBloomFilter::get_counter(std::size_t idx) const {
  const std::uint8_t byte = counters_[idx / 2];
  return (idx % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
}

void CountingBloomFilter::set_counter(std::size_t idx, std::uint8_t v) {
  assert(v <= 0x0f);
  std::uint8_t& byte = counters_[idx / 2];
  if (idx % 2 == 0) {
    byte = static_cast<std::uint8_t>((byte & 0xf0) | v);
  } else {
    byte = static_cast<std::uint8_t>((byte & 0x0f) | (v << 4));
  }
}

void CountingBloomFilter::insert(std::string_view item) {
  insert(hash_item(item));
}

void CountingBloomFilter::insert(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    const std::uint8_t c = get_counter(idx);
    if (c < 0x0f) set_counter(idx, static_cast<std::uint8_t>(c + 1));
  }
}

void CountingBloomFilter::remove(std::string_view item) {
  remove(hash_item(item));
}

void CountingBloomFilter::remove(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    const std::uint8_t c = get_counter(idx);
    if (c > 0 && c < 0x0f) set_counter(idx, static_cast<std::uint8_t>(c - 1));
  }
}

bool CountingBloomFilter::may_contain(std::string_view item) const {
  return may_contain(hash_item(item));
}

bool CountingBloomFilter::may_contain(const ItemHash& h) const {
  for (unsigned i = 0; i < k_; ++i) {
    if (get_counter(bloom_probe_index(i, h.w.data(), bits_)) == 0)
      return false;
  }
  return true;
}

BloomFilter CountingBloomFilter::to_bloom_filter() const {
  std::vector<std::uint64_t> words(bits_ / 64, 0);
  for (std::size_t idx = 0; idx < bits_; ++idx) {
    if (get_counter(idx) > 0) words[idx / 64] |= (1ULL << (idx % 64));
  }
  return BloomFilter::from_words(bits_, k_, std::move(words));
}

}  // namespace smartstore::bloom
