#ifndef DIABLO_RUNTIME_KEYED_ACCUMULATOR_H_
#define DIABLO_RUNTIME_KEYED_ACCUMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/value.h"

namespace diablo::runtime {

/// Murmur3-style 64-bit finalizer. The scatter already consumed a row's
/// hash modulo the destination count (HashDestination), so every key that
/// lands in one destination shares that residue. Anything that splits a
/// destination's keys further (salt stripes, probe slots of the
/// aggregation tables) remixes the hash first; cutting the raw hash would
/// correlate with the destination choice and, for boost-combined tuple
/// hashes of small ints, pile keys into long probe runs.
inline size_t RemixHash(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// A row crossing a shuffle boundary, carrying the memoized hash of its
/// key. The scatter computes Value::Hash() exactly once per produced
/// row; the combine and merge sides, and any recovery replay, reuse the
/// carried hash instead of re-walking the (possibly deeply nested) key.
struct HashedRow {
  size_t hash = 0;
  Value row;
};
using HashedVec = std::vector<HashedRow>;

/// Open-addressing hash table keyed by (cached hash, Value), the
/// aggregation workhorse of the wide operators (groupByKey, reduceByKey,
/// join build side, coGroup, distinct).
///
/// Design constraints, in order:
///  - keys hash ONCE: every probe compares the cached 64-bit hash before
///    falling back to structural Value equality, and growing the table
///    never rehashes a key;
///  - deterministic output: entries are kept in insertion order (a flat
///    vector) and the probe table only stores indices into it, so
///    iteration never depends on hash order. SortByKey() canonicalizes
///    terminal output by Value::Compare, so results do not depend on
///    hash values or table size;
///  - single pass, no per-node allocation: linear probing over a
///    power-of-two slot array of uint32 entry indices, starting at the
///    slot RemixHash(hash) picks.
///
/// Not thread-safe; each partition task owns its own accumulator.
template <typename Payload>
class KeyedAccumulator {
 public:
  struct Entry {
    size_t hash;
    Value key;
    Payload payload;
  };
  /// Result of FindOrCreate: the payload slot plus whether it is new.
  struct Ref {
    Payload& payload;
    bool inserted;
  };

  /// `expected_keys` pre-sizes the table so the common case (keys known
  /// to be at most the row count) never rehashes mid-build.
  explicit KeyedAccumulator(size_t expected_keys = 0) {
    slots_.assign(TableSizeFor(expected_keys), 0);
    mask_ = slots_.size() - 1;
    entries_.reserve(expected_keys);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries in insertion order (or key order after SortByKey).
  std::vector<Entry>& entries() { return entries_; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// The payload for `key`, default-constructed on first sight. `hash`
  /// MUST equal key.Hash(); it is trusted, never recomputed.
  Ref FindOrCreate(size_t hash, const Value& key) {
    if ((entries_.size() + 1) * 4 > slots_.size() * 3) Grow();
    const size_t i = SlotFor(hash, key);
    if (slots_[i] != 0) return Ref{entries_[slots_[i] - 1].payload, false};
    entries_.push_back(Entry{hash, key, Payload{}});
    slots_[i] = static_cast<uint32_t>(entries_.size());
    return Ref{entries_.back().payload, true};
  }

  /// The payload for `key`, or nullptr when absent (join probe side).
  Payload* Find(size_t hash, const Value& key) {
    const uint32_t s = slots_[SlotFor(hash, key)];
    return s == 0 ? nullptr : &entries_[s - 1].payload;
  }

  /// Slots a lookup of `key` inspects (1 = its home slot). A diagnostic
  /// of the hash layout: tests bound its mean over a table's keys.
  size_t ProbeLength(size_t hash, const Value& key) const {
    size_t probes = 0;
    SlotFor(hash, key, &probes);
    return probes;
  }

  /// Estimated footprint of the table itself: probe slots plus the entry
  /// vector (capacities, not sizes — the reservation is the cost). Does
  /// not chase heap payloads behind Value keys, so it is a lower bound;
  /// the telemetry watermark only needs a consistent, cheap estimate.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           entries_.capacity() * sizeof(Entry);
  }

  /// Reorders entries by Value::Compare on the key, canonicalizing the
  /// output of a terminal aggregation. The probe table is rebuilt from
  /// the cached hashes, so the accumulator stays usable (keys are
  /// unique, so the sort needs no stability).
  void SortByKey() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    RebuildSlots();
  }

 private:
  static size_t TableSizeFor(size_t expected_keys) {
    // Capacity for `expected_keys` at < 3/4 load, rounded to a power of
    // two, never below 16 slots.
    size_t want = expected_keys + expected_keys / 3 + 1;
    size_t size = 16;
    while (size < want) size <<= 1;
    return size;
  }

  /// The slot holding `key`, else the empty slot that ends its probe
  /// run. `*probes`, when given, receives the number of slots inspected.
  size_t SlotFor(size_t hash, const Value& key,
                 size_t* probes = nullptr) const {
    size_t i = RemixHash(hash) & mask_;
    size_t n = 1;
    for (;; ++n) {
      const uint32_t s = slots_[i];
      if (s == 0) break;
      const Entry& e = entries_[s - 1];
      if (e.hash == hash && e.key == key) break;
      i = (i + 1) & mask_;
    }
    if (probes != nullptr) *probes = n;
    return i;
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    ReinsertAll();
  }

  void RebuildSlots() {
    std::fill(slots_.begin(), slots_.end(), 0);
    ReinsertAll();
  }

  void ReinsertAll() {
    for (size_t idx = 0; idx < entries_.size(); ++idx) {
      size_t i = RemixHash(entries_[idx].hash) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<uint32_t>(idx + 1);
    }
  }

  /// Entry index + 1 per slot; 0 marks an empty slot.
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_KEYED_ACCUMULATOR_H_
