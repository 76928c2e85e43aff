// coopcr/serve/query_cache.hpp
//
// Digest-keyed LRU cache of rendered advisor answers.
//
// The cache stores the *rendered* answer text, not the AdvisorAnswer
// object: a hit returns the exact bytes the first evaluation produced, so
// repeated queries are byte-identical by construction — the determinism
// contract cli/coopcr_advisor's golden tests pin down. Keys are
// AdvisorQuery::digest() (fnv1a64 over the canonical query text, which
// sorts coords, so coordinate order does not fragment the cache).

#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace coopcr::serve {

/// Fixed-capacity LRU map: query digest -> rendered answer JSON.
class QueryCache {
 public:
  /// `capacity` 0 disables caching (every lookup misses, inserts keep
  /// nothing past the next insert).
  explicit QueryCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// The cached answer for `digest`, or nullptr on a miss. A hit marks the
  /// entry most-recently-used. Counts toward hits()/misses().
  const std::string* lookup(std::uint64_t digest);

  /// Insert (or refresh) the answer for `digest`, evicting the
  /// least-recently-used entry when full, and return the stored bytes:
  /// valid until the entry is evicted or refreshed. With capacity 0 they
  /// are kept only until the next insert, and no lookup finds them.
  const std::string& insert(std::uint64_t digest, std::string answer_json);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t digest;
    std::string answer;
  };

  std::size_t capacity_;
  std::string uncached_;  ///< capacity 0: the last inserted answer
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace coopcr::serve
