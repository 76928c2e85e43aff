#include "serve/query_cache.hpp"

#include <utility>

namespace coopcr::serve {

const std::string* QueryCache::lookup(std::uint64_t digest) {
  const auto it = entries_.find(digest);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->answer;
}

const std::string& QueryCache::insert(std::uint64_t digest,
                                      std::string answer_json) {
  if (capacity_ == 0) {
    uncached_ = std::move(answer_json);
    return uncached_;
  }
  const auto it = entries_.find(digest);
  if (it != entries_.end()) {
    it->second->answer = std::move(answer_json);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->answer;
  }
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back().digest);
    lru_.pop_back();
  }
  lru_.push_front(Entry{digest, std::move(answer_json)});
  entries_[digest] = lru_.begin();
  return lru_.front().answer;
}

}  // namespace coopcr::serve
